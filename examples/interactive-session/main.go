// Interactive session: the §8.2 experiment. A user loads a shop page and
// clicks through a product gallery once per minute. PARCEL and DIR execute
// the click handlers locally (the images were prefetched at first download),
// so clicks cost no network traffic; the cloud-heavy browser (CB) relays
// every click to the cloud and pays a radio wake-up each time — which is why
// its cumulative energy overtakes everyone by the end of the session
// (Figure 8).
package main

import (
	"fmt"

	"github.com/parcel-go/parcel"
	"github.com/parcel-go/parcel/internal/experiments"
)

func main() {
	cfg := parcel.DefaultExperiments()
	cfg.Pages = 8
	cfg.Runs = 1
	cfg.Scenario.LTEJitter = 0

	r := experiments.Fig8(cfg)
	fmt.Printf("interactive page: %s (%d clicks, 60 s apart)\n\n", r.Page, r.Clicks)

	fmt.Printf("cumulative radio energy (J):\n%-8s", "event")
	for _, s := range r.Results {
		fmt.Printf(" %8s", s.Scheme)
	}
	fmt.Println()
	for i := range r.Results[0].Points {
		fmt.Printf("%-8s", r.Results[0].Points[i].Label)
		for _, s := range r.Results {
			fmt.Printf(" %8.2f", s.Points[i].CumRadioJ)
		}
		fmt.Println()
	}

	fmt.Printf("\ncumulative total device energy (J, screen excluded):\n%-8s", "event")
	for _, s := range r.Results {
		fmt.Printf(" %8s", s.Scheme)
	}
	fmt.Println()
	for i := range r.Results[0].Points {
		fmt.Printf("%-8s", r.Results[0].Points[i].Label)
		for _, s := range r.Results {
			fmt.Printf(" %8.2f", s.Points[i].CumTotalJ)
		}
		fmt.Println()
	}

	cb, _ := r.SchemeNamed("CB")
	p, _ := r.SchemeNamed("PARCEL")
	fmt.Printf("\nCB pays %.2f J of radio per click on average; PARCEL pays %.2f J.\n",
		(cb.Points[len(cb.Points)-1].CumRadioJ-cb.Points[0].CumRadioJ)/float64(r.Clicks),
		(p.Points[len(p.Points)-1].CumRadioJ-p.Points[0].CumRadioJ)/float64(r.Clicks))
}
