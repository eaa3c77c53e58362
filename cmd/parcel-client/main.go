// Command parcel-client loads a page through a real-network PARCEL proxy and
// reports what arrived: objects, stream bytes, and timings. With -lte it
// shapes the proxy connection like the paper's cellular access (§7.2).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/parcelnet"
)

func main() {
	proxy := flag.String("proxy", "127.0.0.1:8080", "PARCEL proxy address")
	url := flag.String("url", "", "page URL to load (required)")
	lte := flag.Bool("lte", false, "shape the connection like the paper's LTE access")
	wait := flag.Duration("wait", 30*time.Second, "completion wait budget")
	list := flag.Bool("list", false, "list every received object")
	flag.Parse()
	if *url == "" {
		log.Fatal("parcel-client: -url required")
	}

	dial := net.Dial
	if *lte {
		dial = func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			return netem.Wrap(conn, netem.LTE()), nil
		}
	}

	start := time.Now()
	client, err := parcelnet.DialConfig(*proxy, parcelnet.ClientConfig{Dial: dial})
	if err != nil {
		log.Fatalf("parcel-client: %v", err)
	}
	defer client.Close()
	if err := client.RequestPage(*url, "parcel-client/1.0", "720x1280"); err != nil {
		log.Fatalf("parcel-client: %v", err)
	}
	note, err := client.WaitComplete(*wait)
	if err != nil {
		log.Fatalf("parcel-client: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("page:      %s\n", *url)
	fmt.Printf("objects:   %d pushed (%.2f MB page bytes)\n", note.ObjectsPushed, float64(note.BytesPushed)/1e6)
	fmt.Printf("streams:   %.2f MB on the wire, resumed %d\n", float64(client.BytesReceived)/1e6, note.Resumed)
	fmt.Printf("first critical: %v\n", client.Timeline.FirstCritical)
	fmt.Printf("first byte: %v\n", client.Timeline.FirstByte)
	fmt.Printf("complete:  %v (wall %v)\n", client.Timeline.Complete, elapsed)
	fmt.Printf("fallbacks: %d\n", client.Fallbacks)
	if *list {
		for i, u := range client.Objects() {
			fmt.Printf("  %3d %s\n", i+1, u)
		}
	}
}
