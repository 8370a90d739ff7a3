package main

import (
	"testing"

	"cuttlesys"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestTracedBuildMatchesScenarioBuild steps the first quanta of every
// workload through both builders and compares their outcomes, so a
// drift between the scenario builders and the traced copy shows here
// before it fails a benchmark run.
func TestTracedBuildMatchesScenarioBuild(t *testing.T) {
	const quanta = 3
	for _, w := range workloads {
		s, err := parseSpec(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := cuttlesys.CompileScenario(s, cuttlesys.ScenarioOptions{Seed: 7, Slices: quanta})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		plain, err := build(c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := buildTraced(c, newCollector())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, e := range []*episode{plain, traced} {
			for q := 0; q < quanta; q++ {
				if _, err := e.step(e.inputs()); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
			e.close()
		}
		if a, b := plain.finish(), traced.finish(); a != b {
			t.Errorf("%s: traced outcome %+v, scenario build %+v", w.name, b, a)
		}
	}
}
