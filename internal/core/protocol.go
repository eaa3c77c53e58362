// Package core implements the paper's primary contribution: the PARCEL
// proxy and the PARCEL client browser (§4–§5).
//
// The proxy performs object identification and download on its fast wired
// path — running a full headless browsing engine that parses HTML/CSS and
// executes JS — and pushes the collected objects to the client as MHTML
// bundles over a single TCP connection, scheduled by a cellular-friendly
// policy (IND / PARCEL(X) / ONLD, §4.4). The client parses, renders and
// executes JS locally; it suppresses its own object requests (objects arrive
// pushed), and requests any still-missing objects only after the proxy's
// completion notification (§4.5).
package core

import (
	"github.com/parcel-go/parcel/internal/mhtml"
	"github.com/parcel-go/parcel/internal/sched"
)

// Control-message labels used in packet traces. TLT computation excludes
// packets labelled with the control prefix.
const (
	labelBundle   = "bundle"
	ctlPrefix     = "ctl:"
	labelComplete = ctlPrefix + "complete"
	labelPageReq  = ctlPrefix + "pagereq"
	labelObjReq   = ctlPrefix + "objreq"
)

// pageRequest asks the proxy to load a page on the client's behalf. The
// client attributes travel with it so the proxy can emulate the device when
// talking to origin servers (§4.5 "client properties and customization").
type pageRequest struct {
	URL       string
	UserAgent string
	Screen    string
}

// wireSize approximates the request's bytes on the wire.
func (r pageRequest) wireSize() int {
	return 220 + len(r.URL) + len(r.UserAgent) + len(r.Screen)
}

// bundleMsg carries one scheduled flush of objects, MHTML-framed.
type bundleMsg struct {
	Seq    int
	Reason sched.FlushReason
	Parts  []sched.Item
}

// wireSize is the MHTML-encoded size of the bundle, summed per part so no
// []mhtml.Part is materialized on the send path.
func (b bundleMsg) wireSize() int {
	size := mhtml.EncodedSizeEmpty()
	for _, it := range b.Parts {
		size += mhtml.EncodedPartSize(it.URL, it.ContentType, len(it.Body))
	}
	return size
}

// compressedWireSize models proxy-side compression/transcoding (§3): body
// bytes shrink by factor, framing stays.
func (b bundleMsg) compressedWireSize(factor float64) int {
	full := b.wireSize()
	var bodies int
	for _, it := range b.Parts {
		bodies += len(it.Body)
	}
	compressed := int(float64(bodies) * factor)
	return full - bodies + compressed
}

// completeNote is the proxy's page-completion notification (§4.5): after it,
// the client may request objects it identified but never received. The
// session's counters ride along in the fixed 160-byte control frame's slack.
type completeNote struct{ sched.Counts }

// objectRequest is the client's fallback fetch for a missing object.
type objectRequest struct {
	URL string
}

// objectResponse answers a fallback fetch.
type objectResponse struct {
	Item sched.Item
}

func (o objectResponse) wireSize() int {
	return mhtml.EncodedSize([]mhtml.Part{{
		URL: o.Item.URL, ContentType: o.Item.ContentType, Status: o.Item.Status, Body: o.Item.Body,
	}})
}
