package parcelnet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// sizedBody is a deterministic, position-dependent body, so a dropped,
// repeated or reordered read shows as a byte mismatch.
func sizedBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

// serveBody writes body with an explicit Content-Length.
func serveBody(body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
}

// fetcherFor starts an httptest origin and a fetcher against it.
func fetcherFor(tb testing.TB, h http.Handler) *OriginFetcher {
	tb.Helper()
	srv := httptest.NewServer(h)
	f := NewOriginFetcher(strings.TrimPrefix(srv.URL, "http://"))
	tb.Cleanup(func() {
		f.Client.CloseIdleConnections()
		srv.Close()
	})
	return f
}

// statedLength makes every response claim n bytes of body: the header a real
// server cannot send with a body that still ends cleanly.
type statedLength struct {
	http.RoundTripper
	n int64
}

func (s statedLength) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := s.RoundTripper.RoundTrip(r)
	if err == nil {
		resp.ContentLength = s.n
	}
	return resp, err
}

// allocDelta is the bytes the process allocated while fn ran: the test's
// origin handler and net/http on both sides included.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFetchSizeHint: Content-Length sizes the read and is never trusted. The
// body comes back whole whether the length is exact, absent or overstated,
// and a body shorter than its stated length is an error, not a short result.
// Reading it costs one copy, which the allocation subtests bound.
func TestFetchSizeHint(t *testing.T) {
	body := sizedBody(300 << 10)
	cases := []struct {
		name       string
		handler    http.HandlerFunc
		stated     int64 // when non-zero, the length the response claims
		want       []byte
		wantStatus int
		wantErr    bool
		maxAlloc   uint64 // when non-zero, bound on bytes allocated by the fetch
	}{
		{name: "exact length", handler: serveBody(body), want: body, wantStatus: 200},
		{name: "no length (chunked)", handler: func(w http.ResponseWriter, r *http.Request) {
			for off := 0; off < len(body); off += 64 << 10 {
				w.Write(body[off:min(off+64<<10, len(body))])
				w.(http.Flusher).Flush()
			}
		}, want: body, wantStatus: 200},
		{name: "length understated", handler: serveBody(body), stated: 1000, want: body, wantStatus: 200},
		// The reservation is the clamp plus ReadFrom's spare; 1 MB of slack
		// covers the request itself. Unclamped, it would reserve 1 TB.
		{name: "length above the clamp", handler: serveBody(body), stated: 1 << 40, want: body, wantStatus: 200,
			maxAlloc: maxFrame + 1<<20},
		{name: "empty body", handler: serveBody(nil), want: nil, wantStatus: 200},
		{name: "404 with body", handler: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no such object", http.StatusNotFound)
		}, want: []byte("no such object\n"), wantStatus: 404},
		{name: "truncated body", handler: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := fetcherFor(t, tc.handler)
			if tc.stated != 0 {
				f.Client.Transport = statedLength{f.Client.Transport, tc.stated}
			}
			var got []byte
			var status int
			var err error
			alloc := allocDelta(func() {
				got, _, status, _, err = f.FetchValidatedCtx(context.Background(), "http://site.example/x")
			})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("fetch returned %d bytes and no error", len(got))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d", status, tc.wantStatus)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("body: got %d bytes, want %d (equal prefix: %v)", len(got), len(tc.want),
					bytes.HasPrefix(tc.want, got))
			}
			if tc.maxAlloc != 0 && alloc > tc.maxAlloc {
				t.Fatalf("fetch allocated %d bytes, bound %d", alloc, tc.maxAlloc)
			}
		})
	}

	// A fetched byte costs the process at most 1.5 allocated bytes: one copy
	// of the body plus net/http's per-request state on both sides. Reading a
	// body of known length by doubling a 512-byte slice costs about 4.
	for _, tc := range []struct{ size, fetches int }{{1 << 20, 16}, {19 << 10, 256}} {
		t.Run(fmt.Sprintf("allocation %dKB", tc.size>>10), func(t *testing.T) {
			f := fetcherFor(t, serveBody(sizedBody(tc.size)))
			fetch := func() {
				body, _, _, err := f.Fetch("http://site.example/x")
				if err != nil || len(body) != tc.size {
					t.Fatalf("fetch: %d bytes, err %v", len(body), err)
				}
			}
			fetch() // dial, and fill net/http's buffer pools
			alloc := allocDelta(func() {
				for i := 0; i < tc.fetches; i++ {
					fetch()
				}
			})
			perByte := float64(alloc) / float64(tc.size*tc.fetches)
			t.Logf("%.2f bytes allocated per fetched byte", perByte)
			if perByte > 1.5 {
				t.Fatalf("%.2f bytes allocated per fetched byte, bound 1.5", perByte)
			}
		})
	}
}

// BenchmarkOriginFetch is one proxy↔origin fetch over loopback, the unit cost
// of a cache miss, per body size; 19 KB is the generated page set's mean object.
func BenchmarkOriginFetch(b *testing.B) {
	for _, size := range []int{1 << 10, 19 << 10, 256 << 10, 2 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			f := fetcherFor(b, serveBody(sizedBody(size)))
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body, _, _, err := f.Fetch("http://site.example/x")
				if err != nil || len(body) != size {
					b.Fatalf("fetch: %d bytes, err %v", len(body), err)
				}
			}
		})
	}
}
