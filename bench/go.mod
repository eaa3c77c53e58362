module github.com/parcel-go/parcel/bench

go 1.22

require github.com/parcel-go/parcel v0.0.0

replace github.com/parcel-go/parcel => ../
