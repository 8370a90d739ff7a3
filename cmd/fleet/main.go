// Command fleet is the cluster sweep: it simulates N CuttleSys
// machines behind a traffic router under one shared power budget and
// compares routing/arbitration policies across cluster scenarios — a
// steady backlog, a diurnal swing, a machine degraded by fail-stop
// core faults, and a datacenter budget squeeze. The scenarios are the
// declarative specs of the same names in specs/, compiled by the
// scenario engine; the flags override each spec's geometry. It emits
// a JSON fleet report: QoS-met fraction, fleet throughput, worst tail
// ratio, power and the modeled controller speedup of parallel
// per-machine scheduling, plus a scaling section over fleet sizes.
//
// Every run is deterministic: a fixed -seed produces a byte-identical
// report regardless of GOMAXPROCS, because machine stepping merges in
// index order and each machine's SGD has one serial update order.
//
// With any of -trace, -chrome or -prom set, the sweep is replaced by
// one traced fleet chaos run (QoS-aware router, headroom arbiter, a
// mid-run fail-stop on machine 1) whose trace JSONL, Chrome
// trace_event JSON and Prometheus metric snapshot are written to the
// given paths; -o then receives the trace summary instead of the
// sweep report. Traced artifacts keyed to simulated time are equally
// byte-deterministic (DESIGN.md §10).
//
// Usage:
//
//	fleet [-service xapian] [-machines 4] [-slices 12] [-load 0.7]
//	      [-cap 0.65] [-seed 1] [-o report.json]
//	fleet -trace trace.jsonl [-chrome trace.chrome.json] [-prom metrics.prom]
//	      [-machines 3] [-slices 10] [-o summary.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"cuttlesys"
	"cuttlesys/experiments"
	"cuttlesys/specs"
)

// fleetScenarios names the spec-library scenarios the sweep runs, in
// report order.
func fleetScenarios() []string {
	return []string{"steady", "diurnal", "degraded-node", "budget-squeeze"}
}

// policy pairs a router with a budget arbiter.
type policy struct {
	name    string
	router  func() cuttlesys.Router
	arbiter func() cuttlesys.Arbiter
}

func fleetPolicies() []policy {
	return []policy{
		{"uniform/proportional",
			func() cuttlesys.Router { return cuttlesys.UniformRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.ProportionalArbiter{} }},
		{"least-loaded/proportional",
			func() cuttlesys.Router { return cuttlesys.LeastLoadedRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.ProportionalArbiter{} }},
		{"qos-aware/headroom",
			func() cuttlesys.Router { return &cuttlesys.QoSAwareRouter{} },
			func() cuttlesys.Arbiter { return cuttlesys.HeadroomArbiter{} }},
	}
}

// PolicyReport is one (scenario, policy) cell. Field order is the
// JSON order; floats are rounded so the report is byte-stable.
type PolicyReport struct {
	Policy                   string  `json:"policy"`
	QoSMetFrac               float64 `json:"qosMetFrac"`
	QoSViolations            int     `json:"qosViolations"`
	WorstP99Ratio            float64 `json:"worstP99Ratio"`
	TotalInstrB              float64 `json:"totalInstrB"`
	MeanPowerW               float64 `json:"meanPowerW"`
	ModeledControllerSpeedup float64 `json:"modeledControllerSpeedup"`
}

// ScenarioReport groups the policies under one cluster environment.
type ScenarioReport struct {
	Scenario string         `json:"scenario"`
	Policies []PolicyReport `json:"policies"`
}

// ScalingPoint is one fleet size of the scaling section: the modeled
// controller speedup of stepping that many machines in parallel.
type ScalingPoint struct {
	Machines                 int     `json:"machines"`
	ModeledControllerSpeedup float64 `json:"modeledControllerSpeedup"`
}

// Report is the full fleet sweep.
type Report struct {
	Service  string           `json:"service"`
	Machines int              `json:"machines"`
	Slices   int              `json:"slices"`
	Load     float64          `json:"load"`
	Cap      float64          `json:"cap"`
	Seed     uint64           `json:"seed"`
	Results  []ScenarioReport `json:"results"`
	Scaling  []ScalingPoint   `json:"scaling"`
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// validateGeometry rejects flag values the engine would only trip
// over mid-run, with errors naming the flag.
func validateGeometry(machines, slices int, load, capFrac float64) error {
	if machines < 1 {
		return fmt.Errorf("need at least one machine, got -machines %d", machines)
	}
	if slices < 1 {
		return fmt.Errorf("need at least one timeslice, got -slices %d", slices)
	}
	if load <= 0 || load > 1 {
		return fmt.Errorf("-load %v out of (0, 1]", load)
	}
	if capFrac <= 0 || capFrac > 1 {
		return fmt.Errorf("-cap %v out of (0, 1]", capFrac)
	}
	return nil
}

func main() {
	service := flag.String("service", "xapian", "latency-critical service (TailBench name)")
	machines := flag.Int("machines", 4, "machines in the fleet")
	slices := flag.Int("slices", 12, "timeslices per run")
	load := flag.Float64("load", 0.7, "fleet offered load fraction of aggregate capacity")
	capFrac := flag.Float64("cap", 0.65, "cluster power cap fraction of aggregate reference power")
	seed := flag.Uint64("seed", 1, "fleet seed (machine seeds are derived per machine)")
	out := flag.String("o", "", "output file (default stdout)")
	tracePath := flag.String("trace", "", "traced mode: write trace JSONL to this file")
	chromePath := flag.String("chrome", "", "traced mode: write Chrome trace_event JSON to this file")
	promPath := flag.String("prom", "", "traced mode: write Prometheus metric snapshot to this file")
	flag.Parse()

	if err := validateGeometry(*machines, *slices, *load, *capFrac); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" || *chromePath != "" || *promPath != "" {
		if err := traced(*service, *machines, *slices, *load, *capFrac, *seed,
			*tracePath, *chromePath, *promPath, *out); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := sweep(*service, *machines, *slices, *load, *capFrac, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
	if err := cuttlesys.WriteReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
}

// traced runs the canonical traced chaos run and writes the requested
// artifacts; the trace summary goes to out (stdout when empty).
func traced(service string, machines, slices int, load, capFrac float64, seed uint64, tracePath, chromePath, promPath, out string) error {
	rec, _, err := experiments.RunObsTrace(experiments.ObsTraceSetup{
		Seed: seed, Service: service, Machines: machines, Slices: slices,
		LoadFrac: load, CapFrac: capFrac,
	})
	if err != nil {
		return err
	}
	write := func(path string, emit func(w io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(tracePath, rec.WriteJSONL); err != nil {
		return err
	}
	if err := write(chromePath, rec.WriteChromeTrace); err != nil {
		return err
	}
	if err := write(promPath, rec.WritePrometheus); err != nil {
		return err
	}
	return cuttlesys.WriteReport(out, cuttlesys.SummarizeTrace(rec.Events(), 0))
}

// compileSpec loads one spec-library scenario and compiles it against
// the run's flags; the flags win over the spec's declared geometry.
func compileSpec(name, service string, machines, slices int, load, capFrac float64, seed uint64) (*cuttlesys.CompiledScenario, error) {
	src, err := specs.Source(name)
	if err != nil {
		return nil, err
	}
	sp, err := cuttlesys.ParseScenario(src)
	if err != nil {
		return nil, err
	}
	return cuttlesys.CompileScenario(sp, cuttlesys.ScenarioOptions{
		Machines: machines, Slices: slices, Service: service,
		Load: load, Cap: capFrac, Seed: seed, FS: specs.FS,
	})
}

func sweep(service string, machines, slices int, load, capFrac float64, seed uint64) (*Report, error) {
	if err := validateGeometry(machines, slices, load, capFrac); err != nil {
		return nil, err
	}
	rep := &Report{
		Service: service, Machines: machines, Slices: slices,
		Load: load, Cap: capFrac, Seed: seed,
	}
	for _, name := range fleetScenarios() {
		comp, err := compileSpec(name, service, machines, slices, load, capFrac, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sr := ScenarioReport{Scenario: name}
		for _, pol := range fleetPolicies() {
			pr, err := runCell(comp, slices, pol)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, pol.name, err)
			}
			sr.Policies = append(sr.Policies, pr)
		}
		rep.Results = append(rep.Results, sr)
	}
	// Scaling: the controller-side speedup of parallel stepping, from
	// the schedulers' own charged overheads (deterministic — see
	// FleetResult.ModeledControllerSpeedup). The steady spec recompiled
	// per fleet size supplies the constant patterns.
	for _, n := range []int{1, 4, 16} {
		comp, err := compileSpec("steady", service, n, 4, load, capFrac, seed)
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		pol := fleetPolicies()[0]
		f, err := comp.BuildFleet(pol.router(), pol.arbiter())
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		res, err := f.Run(4, comp.LoadPat, comp.BudgetPat)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("scaling %d: %w", n, err)
		}
		rep.Scaling = append(rep.Scaling, ScalingPoint{
			Machines:                 n,
			ModeledControllerSpeedup: round4(res.ModeledControllerSpeedup()),
		})
	}
	return rep, nil
}

func runCell(comp *cuttlesys.CompiledScenario, slices int, pol policy) (PolicyReport, error) {
	f, err := comp.BuildFleet(pol.router(), pol.arbiter())
	if err != nil {
		return PolicyReport{}, err
	}
	defer f.Close()
	res, err := f.Run(slices, comp.LoadPat, comp.BudgetPat)
	if err != nil {
		return PolicyReport{}, err
	}
	return PolicyReport{
		Policy:                   pol.name,
		QoSMetFrac:               round4(res.QoSMetFraction()),
		QoSViolations:            res.QoSViolations(),
		WorstP99Ratio:            round4(res.WorstP99Ratio()),
		TotalInstrB:              round4(res.TotalInstrB()),
		MeanPowerW:               round4(res.MeanPowerW()),
		ModeledControllerSpeedup: round4(res.ModeledControllerSpeedup()),
	}, nil
}
