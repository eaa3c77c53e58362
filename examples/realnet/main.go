// Realnet: the whole PARCEL system over real TCP on loopback — a replay
// origin server, the PARCEL proxy, and a client whose proxy connection is
// shaped like the paper's LTE access with netem (the dummynet equivalent,
// §7.3). This is the deployable path: the same split of functionality as the
// simulation, running on net.Conn.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

func main() {
	// 1. Record a page set into a replay archive and serve it.
	pages := webgen.Generate(webgen.Spec{Seed: 42, NumPages: 4})
	page := pages[0]
	archive := replay.FromPages(page)
	origin, err := parcelnet.StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		log.Fatal(err)
	}
	defer origin.Close()
	fmt.Printf("origin:  %s (%d objects, %.2f MB)\n", origin.Addr(), archive.Len(), float64(archive.TotalBytes())/1e6)

	// 2. Start the PARCEL proxy against the origin.
	proxy, err := parcelnet.StartProxy("127.0.0.1:0", parcelnet.ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.Config512K,
		QuietPeriod: 2 * time.Second,
		FixedRandom: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer proxy.Close()
	fmt.Printf("proxy:   %s (schedule %s)\n", proxy.Addr(), sched.Config512K)

	// 3. Connect through an LTE-shaped link and load the page.
	lteDial := func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return netem.Wrap(conn, netem.LTE()), nil
	}
	client, err := parcelnet.Dial(proxy.Addr(), lteDial)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if err := client.RequestPage(page.MainURL, "realnet-example/1.0", "720x1280"); err != nil {
		log.Fatal(err)
	}
	note, err := client.WaitComplete(60 * time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nloaded %s over shaped LTE:\n", page.MainURL)
	fmt.Printf("  objects pushed:   %d (page has %d)\n", note.ObjectsPushed, page.ObjectCount)
	fmt.Printf("  streams:          %.2f MB on the wire, resumed %d\n", float64(client.BytesReceived)/1e6, note.Resumed)
	fmt.Printf("  first critical:   %v\n", client.Timeline.FirstCritical.Round(time.Millisecond))
	fmt.Printf("  first byte:       %v\n", client.Timeline.FirstByte.Round(time.Millisecond))
	fmt.Printf("  complete:         %v\n", client.Timeline.Complete.Round(time.Millisecond))
	fmt.Printf("  fallback requests: %d\n", client.Fallbacks)

	// 4. The client store now holds the page; a WebView would render from it.
	hero, err := client.Object(page.MainURL, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  main document:    %d bytes of %s\n", len(hero.Body), hero.ContentType)
}
