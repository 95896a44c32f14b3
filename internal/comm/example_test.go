package comm_test

import (
	"fmt"

	"tlbmap/internal/comm"
	"tlbmap/internal/tlb"
	"tlbmap/internal/vm"
)

// ExampleMatrix shows the basic communication-matrix operations.
func ExampleMatrix() {
	m := comm.NewMatrix(4)
	m.Add(0, 1, 10) // threads 0 and 1 communicate heavily
	m.Add(2, 3, 8)
	m.Inc(0, 3)

	fmt.Println("total:", m.Total())
	fmt.Println("heaviest pair weight:", m.Max())
	fmt.Println("symmetric:", m.At(1, 0) == m.At(0, 1))
	// Output:
	// total: 19
	// heaviest pair weight: 10
	// symmetric: true
}

// ExampleSMDetector walks the software-managed flowchart of Figure 1a by
// hand: two TLBs, one shared page, one miss that triggers a search.
func ExampleSMDetector() {
	cfg := tlb.Config{Entries: 16, Ways: 4}
	tlbs := []*tlb.TLB{tlb.New(cfg), tlb.New(cfg)}
	view := comm.NewTLBView(tlbs) // thread i runs on TLB i
	// Core 1 already has page 7 resident.
	tlbs[1].Insert(vm.Translation{Page: 7, Frame: 70})

	det := comm.NewSMDetector(2, 1) // search on every miss
	cost := det.OnTLBMiss(0, 7, view)

	fmt.Println("search cost (cycles):", cost)
	fmt.Println("communication detected:", det.Matrix().At(0, 1))
	// Output:
	// search cost (cycles): 231
	// communication detected: 1
}

// ExampleHMDetector shows the periodic all-pair scan of Figure 1b.
func ExampleHMDetector() {
	cfg := tlb.Config{Entries: 16, Ways: 4}
	tlbs := []*tlb.TLB{tlb.New(cfg), tlb.New(cfg)}
	view := comm.NewTLBView(tlbs)
	tlbs[0].Insert(vm.Translation{Page: 3, Frame: 30})
	tlbs[1].Insert(vm.Translation{Page: 3, Frame: 30})

	det := comm.NewHMDetector(2, 100)
	det.MaybeScan(0, view)   // arming call
	det.MaybeScan(150, view) // interval elapsed: scan runs

	fmt.Println("scans:", det.Searches())
	fmt.Println("matches for pair (0,1):", det.Matrix().At(0, 1))
	// Output:
	// scans: 1
	// matches for pair (0,1): 1
}
