// Command parcel-proxy runs the real-network PARCEL proxy (§4.2): it accepts
// client connections, performs object identification by parsing and
// executing pages fetched from the origin, and pushes MHTML bundles per the
// configured schedule. It runs what the load and chaos harnesses prove: the
// default resilience policy on every origin fetch, a 256 MB cross-session
// object cache, and — on SIGINT — a graceful drain before it closes.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/sched"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	origin := flag.String("origin", "127.0.0.1:8081", "origin (replay server) address")
	policy := flag.String("sched", "ind", `bundle schedule: "ind", "onld", or a byte threshold like "512K"/"1M"`)
	quiet := flag.Duration("quiet", 3*time.Second, "completion-heuristic inactivity window (§4.5); an upper bound: a provably quiescent crawl completes sooner")
	verbose := flag.Bool("v", false, "log per-session activity")
	flag.Parse()

	cfg := parcelnet.ProxyConfig{
		OriginAddr:  *origin,
		Sched:       parseSched(*policy),
		QuietPeriod: *quiet,
		FixedRandom: true,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	proxy, err := parcelnet.StartProxy(*addr, cfg)
	if err != nil {
		log.Fatalf("parcel-proxy: %v", err)
	}
	log.Printf("PARCEL proxy on %s (origin %s, schedule %s)", proxy.Addr(), *origin, cfg.Sched)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	// Live sessions get five seconds to finish their pages, then a TDrain
	// notice to resume elsewhere; Close only reaps what the drain left.
	if err := proxy.Drain(5 * time.Second); err != nil {
		log.Printf("parcel-proxy: drain: %v", err)
	}
	proxy.Close()
}

// parseSched accepts "ind", "onld", or a threshold like "512K", "1M", "300000".
func parseSched(s string) sched.Config {
	switch strings.ToLower(s) {
	case "ind":
		return sched.ConfigIND
	case "onld":
		return sched.ConfigONLD
	}
	mult := 1
	num := s
	switch {
	case strings.HasSuffix(strings.ToUpper(s), "K"):
		mult, num = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(strings.ToUpper(s), "M"):
		mult, num = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(num)
	if err != nil || n <= 0 {
		log.Fatalf("parcel-proxy: bad -sched %q", s)
	}
	return sched.Config{Policy: sched.Threshold, ThresholdBytes: n * mult}
}
