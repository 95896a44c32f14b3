package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the driver must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesDriver checks that BENCHMARK.json and the driver's
// metric tables name the same workloads and metrics, with the same units
// and directions.
func TestManifestMatchesDriver(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest has %d workloads, driver %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q has no driver", w.Name)
		}
	}
	var e2e, layers []metricSpec
	for _, e := range m.EndToEnd {
		e2e = append(e2e, metricSpec{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, l := range m.PerLayer {
		layers = append(layers, metricSpec{l.Name, l.Unit, l.Better})
	}
	for _, c := range []struct {
		what           string
		manifest, code []metricSpec
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(c.manifest) != len(c.code) {
			t.Errorf("%s: manifest lists %d metrics, driver %d", c.what, len(c.manifest), len(c.code))
			continue
		}
		for i := range c.code {
			if c.manifest[i] != c.code[i] {
				t.Errorf("%s[%d]: manifest %+v, driver %+v", c.what, i, c.manifest[i], c.code[i])
			}
		}
	}
}

// TestSmokePrintsEveryMetric runs every workload at toy size, untraced and
// traced, and checks that each run passes its output checks and prints
// every metric BENCHMARK.json names for its mode, with its unit, both as a
// line and in the JSON result that ends the output.
func TestSmokePrintsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, l := range m.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			var out bytes.Buffer
			ok, err := execute(w.Name, 5, 1, traced, true, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !ok {
				t.Errorf("%s traced=%v failed its checks:\n%s", w.Name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]string{}
			for _, line := range lines {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
					printed[f[1]] = f[3]
				}
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if res.Correct != ok {
				t.Errorf("%s traced=%v: result says correct=%v, run returned %v", w.Name, traced, res.Correct, ok)
			}
			if res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: attempted %d, %d metrics in the result, want %d",
					w.Name, traced, res.Attempted, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if printed[name] != unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q, want %q", w.Name, traced, name, printed[name], unit)
				}
				if res.Metrics[name].Unit != unit {
					t.Errorf("%s traced=%v: result metric %s has unit %q, want %q", w.Name, traced, name, res.Metrics[name].Unit, unit)
				}
			}
		}
	}
}
