package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median = %v, want 2", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestMedianSingle(t *testing.T) {
	if got := Median([]float64{7}); got != 7 {
		t.Fatalf("Median = %v, want 7", got)
	}
}

func TestMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Median of empty slice did not panic")
		}
	}()
	Median(nil)
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("P100 = %v, want 9", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Errorf("P25 = %v, want 2.5", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestCDFShape(t *testing.T) {
	points := CDF([]float64{3, 1, 2})
	if len(points) != 3 {
		t.Fatalf("len = %d, want 3", len(points))
	}
	if points[0].X != 1 || points[2].X != 3 {
		t.Errorf("CDF X not sorted: %+v", points)
	}
	if points[2].P != 1 {
		t.Errorf("last P = %v, want 1", points[2].P)
	}
}

func TestCDFEmpty(t *testing.T) {
	if got := CDF(nil); got != nil {
		t.Fatalf("CDF(nil) = %v, want nil", got)
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Errorf("CDFAt(2.5) = %v, want 0.5", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Errorf("CDFAt(0) = %v, want 0", got)
	}
	if got := CDFAt(xs, 10); got != 1 {
		t.Errorf("CDFAt(10) = %v, want 1", got)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant x = %v, want 0", got)
	}
}

func TestPearsonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pearson length mismatch did not panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 2}
	if Min(xs) != -1 || Max(xs) != 3 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

// Property: CDF probabilities are monotonically nondecreasing and end at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		points := CDF(xs)
		prev := 0.0
		for _, pt := range points {
			if pt.P < prev || pt.P <= 0 || pt.P > 1 {
				return false
			}
			prev = pt.P
		}
		return points[len(points)-1].P == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are bounded by min and max and monotone in p.
func TestPercentileBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, hi := Min(xs), Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("P%v = %v outside [%v, %v]", p, v, lo, hi)
			}
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("Pearson out of range: %v", r)
		}
		if r2 := Pearson(ys, xs); !almostEqual(r, r2, 1e-12) {
			t.Fatalf("Pearson not symmetric: %v vs %v", r, r2)
		}
	}
}

// Property: median lies between min and max and equals the 50th percentile.
func TestMedianConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		med := Median(xs)
		if med != Percentile(xs, 50) {
			t.Fatalf("Median != P50")
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if med < sorted[0] || med > sorted[n-1] {
			t.Fatalf("median %v outside range", med)
		}
	}
}
