package main

import (
	"fmt"
	"hash/fnv"
	"reflect"

	"cuttlesys"
)

// workload is one benchmark scenario: a spec in the repository's
// scenario grammar, run for its declared slice count per episode. A
// cycle is `cycle` episodes, each compiled under its own sub-seed
// drawn from the run seed, so the simulated figures average over that
// many episodes' batch mixes instead of resting on one draw.
type workload struct {
	name  string
	spec  string
	cycle int
}

// workloads are the benchmark's scenarios. Why each exists is recorded
// in BENCHMARK.json and README.md; the specs use the scenario grammar of
// internal/scenario unchanged.
var workloads = []workload{
	{
		// The paper's Table II path: one controller, 16-job mix. No
		// fleet fan-out, control plane or model sharing does work.
		name:  "single-steady",
		cycle: 64,
		spec: `scenario single-steady
describe one CuttleSys controller at constant load, 16-job batch mix
service xapian
machines 1
slices 20
load 0.7
cap 0.65
`,
	},
	{
		// The fleet-throughput north star: 16 machines stepped on as
		// many goroutines through one diurnal cycle.
		name:  "fleet-16",
		cycle: 4,
		spec: `scenario fleet-16
describe 16 machines through one diurnal cycle, least-loaded router, headroom arbiter
service xapian
machines 16
slices 25
load 0.7
cap 0.65
policy router=least-loaded arbiter=headroom

client primary {
  arrival diurnal lo=0.5 hi=1.25 max=0.95 period=1
}
`,
	},
	{
		// The only workload where the control plane, model sharing and
		// fault injection do work: a load step, a fail-stop with
		// eviction and warm-started replacement, and autoscaling.
		name:  "ops-churn",
		cycle: 8,
		spec: `scenario ops-churn
describe managed fleet with a load step, a fail-stop, replacement and autoscaling
service xapian
machines 4
slices 60
load 0.4
cap 0.8
mix jobs=8
budget constant rate=0.8 absolute
share syncperiod=2

client primary {
  arrival step lo=0.3 hi=0.8 from=1/3 to=2/3 absolute
}

fault machine=1 {
  event core-failstop start=1 end=inf cores=6 batchcores=2
}

control {
  replace-evicted
  scale upafter=2 downafter=3 cooldown=4 maxadd=2
}
`,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeeds derives the cycle's per-episode seeds from the run seed.
func (w workload) subSeeds(seed uint64) []uint64 {
	return cuttlesys.FleetSeeds(seed, w.cycle)
}

func parseSpec(w workload) (*cuttlesys.Scenario, error) {
	return cuttlesys.ParseScenario([]byte(w.spec))
}

func compileSpec(s *cuttlesys.Scenario, seed uint64) (*cuttlesys.CompiledScenario, error) {
	return cuttlesys.CompileScenario(s, cuttlesys.ScenarioOptions{Seed: seed})
}

// episode is one built fleet, stepped quantum by quantum through the
// same public Step calls Fleet.Run and ControlPlane.Run make.
type episode struct {
	c     *cuttlesys.CompiledScenario
	fleet *cuttlesys.Fleet
	cp    *cuttlesys.ControlPlane // nil for an unmanaged fleet

	// Set by the traced builder only: the runtimes and share plane it
	// constructed, read for the per-layer counters.
	runtimes []*cuttlesys.Runtime
	plane    *cuttlesys.ModelPlane

	// digests holds one hash per stepped quantum's record.
	digests []uint64
}

// build assembles the episode through the scenario builders.
func build(c *cuttlesys.CompiledScenario) (*episode, error) {
	e := &episode{c: c}
	var err error
	if c.Managed {
		e.cp, err = c.BuildControlPlane(nil, nil)
		if err == nil {
			e.fleet = e.cp.Fleet()
		}
	} else {
		e.fleet, err = c.BuildFleet(nil, nil)
	}
	return e, err
}

// provisionSalt mirrors scenario.ProvisionSalt, which the facade does
// not export: the control plane's provisioning seed stream is keyed by
// the run seed XOR this salt.
const provisionSalt = 0x0b5e55ed

// buildTraced assembles the same machines as build, through
// NewFleet/NewControlPlane with col as the fleet's collector (the
// scenario builders take none). Any drift from the scenario builders
// shows as a fingerprint mismatch against the untraced episode.
func buildTraced(c *cuttlesys.CompiledScenario, col cuttlesys.Collector) (*episode, error) {
	e := &episode{c: c}
	router, arbiter, err := c.Policy()
	if err != nil {
		return nil, err
	}
	lc, err := cuttlesys.AppByName(c.Service)
	if err != nil {
		return nil, err
	}
	_, pool := cuttlesys.SplitTrainTest(c.Spec.Mix.TrainSeed, c.Spec.Mix.Train)
	node := func(seed uint64) cuttlesys.FleetNode {
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed:           seed,
			LC:             lc,
			Batch:          cuttlesys.Mix(seed, pool, c.Spec.Mix.Jobs),
			Reconfigurable: true,
		})
		rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{
			Seed:         seed,
			ShareFactors: c.Spec.Share != nil,
			SGD:          deterministicSGD(),
		})
		e.runtimes = append(e.runtimes, rt)
		return cuttlesys.FleetNode{Machine: m, Scheduler: rt}
	}
	seeds := cuttlesys.FleetSeeds(c.Seed, c.Machines)
	nodes := make([]cuttlesys.FleetNode, c.Machines)
	for i := range nodes {
		nodes[i] = node(seeds[i])
		if nodes[i].Injector, err = c.Injector(i, seeds[i]); err != nil {
			return nil, err
		}
	}
	fcfg := cuttlesys.FleetConfig{Router: router, Arbiter: arbiter, Collector: col}
	if sh := c.Spec.Share; sh != nil {
		e.plane = cuttlesys.NewModelPlane(cuttlesys.ModelPlaneParams{
			SyncPeriod:     sh.SyncPeriod,
			Decay:          sh.Decay.Value(),
			FineTuneIters:  sh.FineTune,
			WarmConfidence: sh.Confidence,
		}, col)
		fcfg.Share = e.plane
	}
	if !c.Managed {
		e.fleet, err = cuttlesys.NewFleet(fcfg, nodes...)
		return e, err
	}
	cfg := cuttlesys.ControlPlaneConfig{
		Fleet:  fcfg,
		Health: healthConfig(c),
		Scale:  scaleConfig(c),
	}
	cfg.Scale.Seed = c.Seed ^ provisionSalt
	cfg.Scale.Provision = func(_ int, seed uint64) (cuttlesys.FleetNode, error) {
		return node(seed), nil
	}
	if e.plane != nil {
		cfg.WarmStart = e.plane
	}
	if e.cp, err = cuttlesys.NewControlPlane(cfg, nodes...); err != nil {
		return nil, err
	}
	e.fleet = e.cp.Fleet()
	return e, nil
}

// deterministicSGD returns the SGD parameters the scenario builders
// use. They select the deterministic trainer through a flag slated for
// removal once it is the only trainer; setting it by name keeps this
// file compiling after the flag is gone, when the zero value is right.
func deterministicSGD() cuttlesys.SGDParams {
	var p cuttlesys.SGDParams
	if f := reflect.ValueOf(&p).Elem().FieldByName("Deterministic"); f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(true)
	}
	return p
}

// healthConfig lowers the spec's health clause as the scenario
// compiler does; zero fields keep the control plane's defaults.
func healthConfig(c *cuttlesys.CompiledScenario) cuttlesys.HealthConfig {
	ctl := c.Spec.Control
	if ctl == nil || !ctl.HasHealth {
		return cuttlesys.HealthConfig{}
	}
	h := ctl.Health
	return cuttlesys.HealthConfig{
		SuspectAfter:    h.SuspectAfter,
		QuarantineAfter: h.QuarantineAfter,
		RecoverAfter:    h.RecoverAfter,
		ReleaseAfter:    h.ReleaseAfter,
		ProbationAfter:  h.ProbationAfter,
		ProbationWeight: h.ProbationWeight.Value(),
		DrainAfter:      h.DrainAfter,
		DrainSlices:     h.DrainSlices,
	}
}

// scaleConfig lowers the spec's autoscaler clause as the scenario
// compiler does; machine bounds are deltas on the run's machine count.
func scaleConfig(c *cuttlesys.CompiledScenario) cuttlesys.ScaleConfig {
	ctl := c.Spec.Control
	if ctl == nil {
		return cuttlesys.ScaleConfig{}
	}
	cfg := cuttlesys.ScaleConfig{ReplaceEvicted: ctl.ReplaceEvicted}
	if ctl.HasScale {
		sc := ctl.Scale
		cfg.UpUtil = sc.UpUtil.Value()
		cfg.DownUtil = sc.DownUtil.Value()
		cfg.UpAfter = sc.UpAfter
		cfg.DownAfter = sc.DownAfter
		cfg.Cooldown = sc.Cooldown
		cfg.MinMachines = c.Machines + sc.MinAdd
		if sc.MaxAdd > 0 {
			cfg.MaxMachines = c.Machines + sc.MaxAdd
		}
		cfg.MinBudgetFrac = sc.MinBudgetFrac.Value()
	}
	return cfg
}

// inputs samples the compiled load and budget patterns at the fleet
// clock, exactly as Fleet.Run and ControlPlane.Run do.
func (e *episode) inputs() (offered, budgetW float64) {
	t := e.fleet.Now()
	return e.c.LoadPat(t) * e.fleet.CapacityQPS(), e.c.BudgetPat(t) * e.fleet.RefPowerW()
}

// step runs one quantum and returns the machines it stepped.
func (e *episode) step(offered, budgetW float64) (int, error) {
	var rec any
	var members int
	if e.cp != nil {
		r, err := e.cp.Step(offered, budgetW)
		if err != nil {
			return 0, err
		}
		rec, members = r, len(r.Members)
	} else {
		r, err := e.fleet.Step(offered, budgetW)
		if err != nil {
			return 0, err
		}
		rec, members = r, len(r.Members)
	}
	e.digests = append(e.digests, digest(rec))
	return members, nil
}

func (e *episode) close() {
	if e.cp != nil {
		e.cp.Close()
		return
	}
	e.fleet.Close()
}

// digest hashes a record's full printed form. %v renders floats in
// their shortest round-tripping form, so equal digests mean
// bit-identical records.
func digest(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

// outcome is the simulated result of one episode: its fingerprint and
// the machine-quantum tallies behind the simulated metrics.
type outcome struct {
	fingerprint   uint64
	machineQuanta int
	qosMet        int
	budgetMet     int
	instrB        float64
	joins         int
	evictions     int
	transitions   int
}

// finish folds the episode's per-quantum digests and every machine's
// slice records into its outcome.
func (e *episode) finish() outcome {
	h := fnv.New64a()
	for _, d := range e.digests {
		fmt.Fprintf(h, "%x\n", d)
	}
	var o outcome
	for _, nd := range e.fleet.Result().Nodes {
		for _, s := range nd.Slices {
			fmt.Fprintf(h, "%+v\n", s)
			o.machineQuanta++
			if !s.Violated {
				o.qosMet++
			}
			if !s.OverBudget {
				o.budgetMet++
			}
			o.instrB += s.TotalInstrB
		}
	}
	if e.cp != nil {
		for _, ev := range e.cp.Membership() {
			fmt.Fprintf(h, "%+v\n", ev)
			switch ev.Event {
			case "join":
				o.joins++
			case "evict":
				o.evictions++
			}
		}
		for _, tr := range e.cp.Transitions() {
			fmt.Fprintf(h, "%+v\n", tr)
		}
		o.transitions = len(e.cp.Transitions())
	}
	o.fingerprint = h.Sum64()
	return o
}
