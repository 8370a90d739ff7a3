package cuttlesys_test

import (
	"reflect"
	"runtime"
	"testing"

	"cuttlesys"
)

// The facade must expose enough to run every policy end to end — this
// is the library's contract with downstream users.
func TestPublicAPIEndToEnd(t *testing.T) {
	lc, err := cuttlesys.AppByName("silo")
	if err != nil {
		t.Fatal(err)
	}
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	mkMachine := func(reconf bool) *cuttlesys.Machine {
		return cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: 9, LC: lc, Batch: cuttlesys.Mix(9, pool, 16), Reconfigurable: reconf,
		})
	}

	type policyCase struct {
		name   string
		reconf bool
		mk     func(m *cuttlesys.Machine) cuttlesys.Scheduler
	}
	cases := []policyCase{
		{"cuttlesys", true, func(m *cuttlesys.Machine) cuttlesys.Scheduler {
			return cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 9})
		}},
		{"no-gating", false, func(m *cuttlesys.Machine) cuttlesys.Scheduler {
			return cuttlesys.NewNoGating(m)
		}},
		{"core-gating", false, func(m *cuttlesys.Machine) cuttlesys.Scheduler {
			return cuttlesys.NewCoreGating(m, cuttlesys.DescendingPower, true, 9)
		}},
		{"asymm", false, func(m *cuttlesys.Machine) cuttlesys.Scheduler {
			return cuttlesys.NewAsymmetric(m, true)
		}},
		{"flicker", true, func(m *cuttlesys.Machine) cuttlesys.Scheduler {
			return cuttlesys.NewFlicker(m, true, 9)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mkMachine(c.reconf)
			res, err := cuttlesys.Run(m, c.mk(m), 3,
				cuttlesys.ConstantLoad(0.7), cuttlesys.ConstantBudget(0.8))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Slices) != 3 {
				t.Fatalf("%s: %d slices", c.name, len(res.Slices))
			}
			if res.TotalInstrB() <= 0 {
				t.Fatalf("%s: no work", c.name)
			}
		})
	}
}

// TestDefaultRuntimeSeedContract pins the seed contract on the
// default path: a zero-valued RuntimeParams apart from its Seed must
// give the same slice records whatever the processor count, so no
// single-machine result depends on the host's width.
func TestDefaultRuntimeSeedContract(t *testing.T) {
	lc := mustApp(t, "xapian")
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	run := func(seed uint64, procs int) *cuttlesys.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
			Seed: seed, LC: lc, Batch: cuttlesys.Mix(seed, pool, 16), Reconfigurable: true,
		})
		res, err := cuttlesys.Run(m, cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: seed}), 4,
			cuttlesys.ConstantLoad(0.7), cuttlesys.ConstantBudget(0.8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, seed := range []uint64{1, 2} {
		narrow, wide := run(seed, 1), run(seed, 4)
		if !reflect.DeepEqual(narrow.Slices, wide.Slices) {
			for i := range narrow.Slices {
				if !reflect.DeepEqual(narrow.Slices[i], wide.Slices[i]) {
					t.Fatalf("seed %d: slice %d differs between GOMAXPROCS=1 and 4:\n1: %+v\n4: %+v",
						seed, i, narrow.Slices[i], wide.Slices[i])
				}
			}
			t.Fatalf("seed %d: results differ between GOMAXPROCS=1 and 4", seed)
		}
	}
}

func TestCatalogExposed(t *testing.T) {
	if got := len(cuttlesys.TailBench()); got != 5 {
		t.Fatalf("TailBench: %d services", got)
	}
	if got := len(cuttlesys.SPEC()); got != 28 {
		t.Fatalf("SPEC: %d apps", got)
	}
	if _, err := cuttlesys.AppByName("not-a-benchmark"); err == nil {
		t.Fatal("AppByName should reject unknown names")
	}
}

func TestCustomProfileValidates(t *testing.T) {
	p := &cuttlesys.Profile{
		Name: "svc", Class: cuttlesys.LatencyCritical,
		ILP: 2, FESens: 0.3, BESens: 0.1, LSSens: 0.5, BrMPKI: 3,
		MemFrac: 0.4, L1MissRate: 0.1, MLP: 4,
		WSWays: 3, MissFloor: 0.1, MissCeil: 0.7, MissSteep: 1.4,
		Activity: 0.9,
		MaxQPS:   10000, QoSTargetMs: 5, QuerySigma: 0.5, SatUtil: 0.75,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid custom profile rejected: %v", err)
	}
	p.MaxQPS = 0
	if err := p.Validate(); err == nil {
		t.Fatal("invalid custom profile accepted")
	}
}

func TestPatternsExposed(t *testing.T) {
	if cuttlesys.ConstantLoad(0.5)(3) != 0.5 {
		t.Fatal("ConstantLoad broken")
	}
	if cuttlesys.StepBudget(0.9, 0.6, 1, 2)(1.5) != 0.6 {
		t.Fatal("StepBudget broken")
	}
	if v := cuttlesys.DiurnalLoad(0.2, 1.0, 2.0)(1.0); v < 0.99 {
		t.Fatalf("DiurnalLoad peak = %v", v)
	}
	if cuttlesys.SliceDur != 0.1 {
		t.Fatal("SliceDur should be the paper's 100 ms quantum")
	}
}

func TestMultiServiceFacade(t *testing.T) {
	xapian := mustApp(t, "xapian")
	silo := mustApp(t, "silo")
	_, pool := cuttlesys.SplitTrainTest(1, 16)
	m := cuttlesys.NewMachine(cuttlesys.MachineSpec{
		Seed: 33, LC: xapian, ExtraLCs: []*cuttlesys.Profile{silo},
		Batch: cuttlesys.Mix(33, pool, 16), Reconfigurable: true,
	})
	rt := cuttlesys.NewRuntime(m, cuttlesys.RuntimeParams{Seed: 33})
	res, err := cuttlesys.RunMulti(m, rt, 4,
		[]cuttlesys.LoadPattern{cuttlesys.ConstantLoad(0.4), cuttlesys.ConstantLoad(0.3)},
		cuttlesys.ConstantBudget(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slices) != 4 || res.TotalInstrB() <= 0 {
		t.Fatal("multi-service facade run failed")
	}
	if len(res.Slices[0].ExtraP99Ms) != 1 {
		t.Fatal("extra-service records missing")
	}
}

// mustApp resolves a service profile via the facade, failing the test
// on a bad name so the error is never silently dropped.
func mustApp(t testing.TB, name string) *cuttlesys.Profile {
	t.Helper()
	app, err := cuttlesys.AppByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}
