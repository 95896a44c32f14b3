package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"tlbmap/internal/check"
	"tlbmap/internal/comm"
	"tlbmap/internal/fault"
	"tlbmap/internal/mapping"
	"tlbmap/internal/npb"
	"tlbmap/internal/topology"
)

// matrixReprGolden holds one SHA-256 per reprCell. It was frozen from the
// two-representation matrix (dense below 256 threads, per-row hashmaps at
// or above, plus the HM detector's dense pair scratch) at commit aa72475:
// the engine cells agreed with every matrix forced sparse and every
// matrix forced dense, and the DetectAll cells ran at the default
// threshold, where the hashmaps and the scratch were live. The file has
// no update path; a digest change is a behaviour change.
const matrixReprGolden = "testdata/matrix_repr.golden"

// reprCell is one frozen run; digest returns its SHA-256 in hex.
type reprCell struct {
	name string
	// slow marks a 256-thread DetectAll cell (seconds of simulation),
	// skipped under the race detector.
	slow   bool
	digest func(t *testing.T) string
}

// reprCells lists the golden's cells: eleven engine differential runs
// (SM/HM on UMA and NUMA, every fault scenario, a 128-core run with all
// faults armed) and DetectAll at 256 cores, class W, for CG (a full
// matrix) and MG (a sparse one).
func reprCells() []reprCell {
	machines := func() []*topology.Machine {
		return []*topology.Machine{topology.Harpertown(), topology.NUMA(2)}
	}
	var cells []reprCell
	addDiff := func(name string, cfg check.DiffConfig) {
		cells = append(cells, reprCell{name: name, digest: func(t *testing.T) string {
			return digestDifferential(t, cfg)
		}})
	}

	seed := int64(0)
	for _, mech := range []string{"SM", "HM"} {
		for _, machine := range machines() {
			seed++
			addDiff(fmt.Sprintf("%s/%s", mech, machine.Name), check.DiffConfig{
				Seed: seed, Pattern: check.Mixed, Machine: machine,
				Ops: 250, Mechanism: mech,
			})
		}
	}
	for i, kind := range fault.Kinds() {
		mech := []string{"SM", "HM"}[i%2]
		machine := machines()[(i/2)%2]
		var plan fault.Plan
		plan.Seed = 77 + int64(i)
		plan.Intensity[kind] = 0.6
		addDiff(fmt.Sprintf("fault-%s/%s/%s", kind, mech, machine.Name), check.DiffConfig{
			Seed: 100 + int64(i), Pattern: check.Mixed, Machine: machine,
			Ops: 250, Mechanism: mech, Faults: plan,
		})
	}
	var all fault.Plan
	all.Seed = 5
	for _, k := range fault.Kinds() {
		all.Intensity[k] = 0.4
	}
	addDiff("manycore-128-all-faults", check.DiffConfig{
		Seed: 128, Pattern: check.Mixed, Machine: topology.Manycore(128),
		Ops: 60, Mechanism: "SM", Faults: all,
	})

	for _, app := range []string{"CG", "MG"} {
		cells = append(cells, reprCell{name: "detectall/" + app + "-manycore-256-W", slow: true,
			digest: func(t *testing.T) string { return digestDetectAll(t, app) }})
	}
	return cells
}

// writeMatrix feeds a matrix to h independently of its representation:
// the size, every ForEach triple, and the JSON and CSV renderings.
func writeMatrix(t *testing.T, h hash.Hash, m *comm.Matrix) {
	t.Helper()
	if m == nil {
		fmt.Fprintln(h, "matrix <nil>")
		return
	}
	fmt.Fprintf(h, "matrix n=%d\n", m.N())
	m.ForEach(func(i, j int, w uint64) { fmt.Fprintf(h, "%d %d %d\n", i, j, w) })
	js, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	if err := m.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
}

func digestDifferential(t *testing.T, cfg check.DiffConfig) string {
	rep, err := check.Differential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeMatrix(t, h, rep.Result.Matrix)
	res := *rep.Result
	res.Matrix = nil
	fmt.Fprintf(h, "result %+v\nfaults %+v\n", res, rep.FaultStats)
	return hex.EncodeToString(h.Sum(nil))
}

func digestDetectAll(t *testing.T, app string) string {
	machine := topology.Manycore(256)
	b, err := npb.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	w := FromNPB(b, npb.Params{Threads: 256, Class: npb.ClassW, Seed: 1})
	sm, hm, oracle, err := DetectAll(w, Options{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeMatrix(t, h, sm.Result.Matrix)
	res := *sm.Result
	res.Matrix = nil
	fmt.Fprintf(h, "result %+v\n", res)
	for _, d := range []*Detection{sm, hm, oracle} {
		fmt.Fprintf(h, "%s sampled=%v faults=%+v\n", d.Mechanism, d.SampledFraction, d.FaultStats)
		writeMatrix(t, h, d.Matrix)
		place, err := mapping.NewAuto().Map(d.Matrix, machine)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "auto %v\n", place)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readReprGolden parses "name digest" lines, skipping '#' comments.
func readReprGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(matrixReprGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", matrixReprGolden, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestMatrixRepresentationGolden recomputes every cell's digest and
// requires the frozen value: the single dense matrix must reproduce the
// two-representation matrix byte for byte — cells, serializations,
// engine timing and counters, fault statistics and mapper placements.
func TestMatrixRepresentationGolden(t *testing.T) {
	want := readReprGolden(t)
	cells := reprCells()
	if len(want) != len(cells) {
		t.Fatalf("%s has %d cells, the test defines %d", matrixReprGolden, len(want), len(cells))
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && raceEnabled {
				t.Skip("256-thread DetectAll is too slow under the race detector")
			}
			sum, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden digest for %s", c.name)
			}
			if got := c.digest(t); got != sum {
				t.Fatalf("digest %s, golden %s", got, sum)
			}
		})
	}
}
