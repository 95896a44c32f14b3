package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 100} {
		got, err := Map(Pool{Workers: workers}, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Pool{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("empty map: %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	// Jobs 3 and 7 fail; every worker count must report job 3's error,
	// the one a sequential run would hit first.
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := Map(Pool{Workers: workers}, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(Pool{Workers: 1}, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// With one worker the failure is observed before any further claim.
	if n := ran.Load(); n != 1 {
		t.Errorf("ran %d jobs after immediate failure", n)
	}
}

func TestProgressReachesTotal(t *testing.T) {
	var calls []int
	p := Pool{Workers: 4, Progress: func(done, total int) {
		if total != 20 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done) // serialized by the pool
	}}
	if err := Run(p, 20, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 20 {
		t.Fatalf("%d progress calls", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}

func TestSeedDeterministic(t *testing.T) {
	a := Seed(1, "SP", "rep", "3")
	b := Seed(1, "SP", "rep", "3")
	if a != b {
		t.Error("same inputs, different seeds")
	}
	if a <= 0 {
		t.Errorf("seed %d not positive", a)
	}
	seen := map[int64]string{a: "base"}
	for name, s := range map[string]int64{
		"other base":   Seed(2, "SP", "rep", "3"),
		"other bench":  Seed(1, "LU", "rep", "3"),
		"other kind":   Seed(1, "SP", "os", "3"),
		"other rep":    Seed(1, "SP", "rep", "4"),
		"merged parts": Seed(1, "SPrep", "3"),
	} {
		if prev, dup := seen[s]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[s] = name
	}
	if SeedN(1, 3, "SP", "rep") != a {
		t.Error("SeedN does not match Seed with the formatted index")
	}
}

func TestSeedNeverZero(t *testing.T) {
	// Zero is reserved (it disables jitter in sim.Config); Seed must map
	// everything to a positive value.
	for i := int64(0); i < 1000; i++ {
		if s := SeedN(i, int(i), "probe"); s <= 0 {
			t.Fatalf("Seed(%d) = %d", i, s)
		}
	}
}
