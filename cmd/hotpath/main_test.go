package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

func marshalAudit(t *testing.T) []byte {
	t.Helper()
	rep, err := audit([]string{"xapian", "masstree", "imgdnn"}, 1, 4, 5, 0.7, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestAuditVerdicts requires every equivalence the audit checks to
// hold: the surface tables and the batched tail-latency solver must
// each reproduce the code they replaced bit-for-bit, and the fast
// plane must have demonstrably run (builds and lookups above zero).
func TestAuditVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("full audit in -short mode")
	}
	var rep Report
	if err := json.Unmarshal(marshalAudit(t), &rep); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Table {
		if !c.IPCEqual || !c.BIPSEqual || !c.Traffic || !c.Service || !c.DVFSEqual {
			t.Errorf("%s @ inflation %v: table diverged from the pointwise model: %+v", c.App, c.Inflation, c)
		}
	}
	if !rep.Qsim.Equal || rep.Qsim.Cells <= 0 {
		t.Errorf("batched Erlang-C diverged from scalar: %+v", rep.Qsim)
	}
	if w := rep.Fleet; w.TableBuilds == 0 || w.TableLookups == 0 {
		t.Errorf("fast plane idle: %+v", w)
	}
}

// TestReferenceReportUnchanged regenerates the seeded reference audit
// with the `make bench-hotpath` parameters and requires the bytes to
// match the checked-in BENCH_hotpath.json exactly.
func TestReferenceReportUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full audit in -short mode")
	}
	want, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalAudit(t); !bytes.Equal(got, want) {
		t.Fatal("regenerated report differs from BENCH_hotpath.json; run `make bench-hotpath` and review the diff")
	}
}

// TestReportDeterministicAcrossGOMAXPROCS pins the audit's
// schedule-invariance: the fleet merges machine results in index
// order, so one stepping goroutine or many produce the same bytes.
func TestReportDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full audit in -short mode")
	}
	ambient := marshalAudit(t)
	prev := runtime.GOMAXPROCS(1)
	pinned := marshalAudit(t)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(ambient, pinned) {
		t.Fatalf("report differs between GOMAXPROCS=%d and GOMAXPROCS=1", prev)
	}
}
