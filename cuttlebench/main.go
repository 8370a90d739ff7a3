// Command cuttlebench is the repository's benchmark: it drives one
// scenario workload through the public scenario API (ParseScenario →
// CompileScenario → Build* → a closed loop of Step calls), times every
// Step, checks the simulated output is bit-identical across repeats,
// GOMAXPROCS settings and the traced build, and prints each metric
// with its unit and sample count. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	cuttlebench --workload fleet-16 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced cycle, plus a repeat of its first episode, runs after the
// untraced loop and the metrics are the per-layer ones. BENCHMARK.json
// at the repository root lists them; README.md says why they are what
// they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cuttlesys"
)

// setupRuns is how many fresh processes measure setup_s; the median
// is reported. The LC offline characterisation is cached process-wide,
// so set-up can only be measured in a process that has not built yet.
const setupRuns = 3

// minQuanta is the fewest timed Step calls a run makes, so the p90 has
// at least ten samples above it even where a quantum is slow.
const minQuanta = 100

// checkQuanta is how many leading quanta of the first episode rerun at
// GOMAXPROCS=1 before timing starts; the run doubles as the warm-up.
const checkQuanta = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cuttlebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: single-steady, fleet-16 or ops-churn")
	seed := fs.Uint64("seed", 1, "run seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "least host seconds the timed loop runs, in whole episodes")
	trace := fs.Int("trace", 0, "1 adds a traced cycle and reports the per-layer metrics")
	setupChild := fs.Bool("setup-child", false, "internal: measure one fresh-process set-up and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuttlebench:", err)
		return 2
	}
	if *setupChild {
		if err := setupOnce(w, *seed, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cuttlebench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "cuttlebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuttlebench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cuttlebench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// setupTimes is one fresh-process set-up, split by public call.
type setupTimes struct {
	ParseS   float64 `json:"parse_s"`
	CompileS float64 `json:"compile_s"`
	BuildS   float64 `json:"build_s"`
}

func (s setupTimes) total() float64 { return s.ParseS + s.CompileS + s.BuildS }

// setupOnce times spec parse, compile and build of the workload's
// first episode in this (fresh) process.
func setupOnce(w workload, seed uint64, out io.Writer) error {
	var st setupTimes
	t0 := now()
	s, err := parseSpec(w)
	if err != nil {
		return err
	}
	t1 := now()
	c, err := compileSpec(s, w.subSeeds(seed)[0])
	if err != nil {
		return err
	}
	t2 := now()
	e, err := build(c)
	if err != nil {
		return err
	}
	t3 := now()
	e.close()
	st.ParseS, st.CompileS, st.BuildS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return json.NewEncoder(out).Encode(st)
}

// measureSetup runs setupRuns fresh child processes, one after another.
func measureSetup(w workload, seed uint64) ([]setupTimes, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []setupTimes
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var st setupTimes
		if err := json.Unmarshal(out, &st); err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		all = append(all, st)
	}
	return all, nil
}

// now reads the host clock for the benchmark's own spans.
func now() time.Time {
	return time.Now() //lint:allow determinism benchmark timing is host time by definition and never feeds simulated output
}

// loopStats are the host-side measurements of one timed loop.
type loopStats struct {
	stepNs        []float64 // one per Step call
	machineQuanta int
	allocBytes    uint64
	gcCycles      uint64
	cpu           time.Duration // process CPU time inside Step calls
	episodes      int
}

// runtime/metrics keys read around each Step, and after the forced
// collection that ends each untraced episode.
const (
	allocKey = "/gc/heap/allocs:bytes"
	gcKey    = "/gc/cycles/total:gc-cycles"
	liveKey  = "/gc/heap/live:bytes"
)

func readHostCounters(s []metrics.Sample) (alloc, gc uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapBytes forces a full collection and returns the heap it found
// live. Unlike peak RSS, which depends on when the concurrent collector
// happened to run, this depends only on what the program still holds.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveKey}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// result is everything one invocation measured.
type result struct {
	w         workload
	correct   bool
	attempted int
	notes     []string

	setup    []setupTimes
	untraced loopStats
	traced   loopStats
	sim      outcome
	layers   *layerTotals
	peakRSS  float64

	retainedHeapMB float64 // mean over the cycle's sub-seeds
}

// bench runs one workload end to end.
func bench(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	res := &result{w: w, correct: true}
	var err error
	if res.setup, err = measureSetup(w, seed); err != nil {
		return nil, err
	}
	s, err := parseSpec(w)
	if err != nil {
		return nil, err
	}
	var compiled []*compiledEpisode
	for _, sub := range w.subSeeds(seed) {
		c, err := compileSpec(s, sub)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, &compiledEpisode{c: c})
	}

	// Warm-up and GOMAXPROCS check: the first quanta of the first
	// episode at GOMAXPROCS=1, compared below against the timed loop.
	prev := runtime.GOMAXPROCS(1)
	check, err := res.prefix(compiled[0], checkQuanta)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}

	if res.untraced, err = res.loop(compiled, len(compiled), budget, minQuanta, nil); err != nil {
		return nil, err
	}
	ref := compiled[0].digests
	for i := range check {
		if i >= len(ref) || check[i] != ref[i] {
			res.mismatch(fmt.Sprintf("quantum %d at GOMAXPROCS=1 differs from GOMAXPROCS=%d", i, prev))
			break
		}
	}
	res.sim = sumOutcomes(compiled)
	for _, ce := range compiled {
		res.retainedHeapMB += float64(ce.retainedHeap) / 1e6 / float64(len(compiled))
	}
	res.peakRSS = peakRSSMB()

	if traced {
		res.layers = newLayerTotals()
		if res.traced, err = res.loop(compiled, len(compiled)+1, 0, 0, res.layers); err != nil {
			return nil, err
		}
		for _, d := range res.layers.drift {
			res.mismatch(d)
		}
	}
	return res, nil
}

// compiledEpisode is one sub-seed's compiled scenario plus the
// reference output of its first untraced run.
type compiledEpisode struct {
	c            *cuttlesys.CompiledScenario
	ref          *outcome
	digests      []uint64
	retainedHeap uint64 // live heap at the end of the first untraced run
}

func (r *result) mismatch(what string) {
	r.correct = false
	r.notes = append(r.notes, what)
}

// prefix steps the first n quanta of an episode and returns their
// digests.
func (r *result) prefix(ce *compiledEpisode, n int) ([]uint64, error) {
	e, err := build(ce.c)
	if err != nil {
		return nil, err
	}
	defer e.close()
	for i := 0; i < n && i < ce.c.Slices; i++ {
		r.attempted++
		if _, err := e.step(e.inputs()); err != nil {
			return nil, err
		}
	}
	return e.digests, nil
}

// loop runs episodes round-robin over the sub-seeds, timing every
// Step: at least minEpisodes, then whole episodes until budget has
// passed and minSteps Steps ran. A nil layers runs the untraced
// builders; otherwise each episode is built traced and its collector
// folded into layers. The first untraced run of each sub-seed ends
// with a forced collection, outside the timed Steps, that reads the
// heap the finished episode retains. Every episode's outcome must
// equal the first untraced run of its sub-seed.
func (r *result) loop(eps []*compiledEpisode, minEpisodes int, budget time.Duration, minSteps int, layers *layerTotals) (loopStats, error) {
	var st loopStats
	host := []metrics.Sample{{Name: allocKey}, {Name: gcKey}}
	start := now()
	for k := 0; k < minEpisodes || now().Sub(start) < budget || len(st.stepNs) < minSteps; k++ {
		ce := eps[k%len(eps)]
		var e *episode
		var col *collector
		var err error
		if layers == nil {
			e, err = build(ce.c)
		} else {
			col = newCollector()
			e, err = buildTraced(ce.c, col)
		}
		if err != nil {
			return st, err
		}
		for q := 0; q < ce.c.Slices; q++ {
			offered, budgetW := e.inputs()
			a0, g0 := readHostCounters(host)
			c0 := cpuTime()
			t0 := now()
			n, err := e.step(offered, budgetW)
			d := now().Sub(t0)
			c1 := cpuTime()
			a1, g1 := readHostCounters(host)
			r.attempted++
			if err != nil {
				e.close()
				return st, err
			}
			st.stepNs = append(st.stepNs, float64(d.Nanoseconds()))
			st.machineQuanta += n
			st.allocBytes += a1 - a0
			st.gcCycles += g1 - g0
			st.cpu += c1 - c0
			if col != nil {
				col.span("step", d)
			}
		}
		if layers == nil && ce.ref == nil {
			ce.retainedHeap = liveHeapBytes()
		}
		out := e.finish()
		if col != nil {
			layers.add(col, e, out)
		}
		e.close()
		st.episodes++
		switch {
		case ce.ref == nil:
			ce.ref, ce.digests = &out, e.digests
		case out != *ce.ref:
			kind := "repeat"
			if layers != nil {
				kind = "traced run"
			}
			r.mismatch(fmt.Sprintf("%s of sub-seed episode %d: fingerprint %016x, first run %016x",
				kind, k%len(eps), out.fingerprint, ce.ref.fingerprint))
		}
	}
	return st, nil
}

// sumOutcomes totals the reference outcome of every sub-seed.
func sumOutcomes(eps []*compiledEpisode) outcome {
	var s outcome
	h := uint64(0)
	for _, ce := range eps {
		o := ce.ref
		h = h*1099511628211 ^ o.fingerprint
		s.machineQuanta += o.machineQuanta
		s.qosMet += o.qosMet
		s.budgetMet += o.budgetMet
		s.instrB += o.instrB
		s.joins += o.joins
		s.evictions += o.evictions
		s.transitions += o.transitions
	}
	s.fingerprint = h
	return s
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func (r *result) endToEnd() []metric {
	u := r.untraced
	steps := sortedCopy(u.stepNs)
	var setup []float64
	for _, s := range r.setup {
		setup = append(setup, s.total())
	}
	mq := float64(r.sim.machineQuanta)
	return []metric{
		{"setup_s", median(setup), "s", len(setup)},
		{"quantum_ms_p50", quantile(steps, 0.5) / 1e6, "ms", len(steps)},
		{"quantum_ms_p90", quantile(steps, 0.9) / 1e6, "ms", len(steps)},
		{"machine_quanta_per_s", float64(u.machineQuanta) / (sum(u.stepNs) / 1e9), "1/s", u.machineQuanta},
		{"retained_heap_mb", r.retainedHeapMB, "MB", r.w.cycle},
		{"qos_met_frac", float64(r.sim.qosMet) / mq, "frac", r.sim.machineQuanta},
		{"batch_instr_b_per_quantum", r.sim.instrB / mq, "B", r.sim.machineQuanta},
		{"budget_met_frac", float64(r.sim.budgetMet) / mq, "frac", r.sim.machineQuanta},
	}
}

// print writes the provenance line, one line per metric with its unit
// and sample count, and the closing JSON object.
func (r *result) print(out io.Writer) error {
	traced := r.layers != nil
	prov, err := json.Marshal(provenance())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	fmt.Fprintf(out, "workload %s: %d episodes untraced, %d traced, %d per cycle, fingerprint %016x\n",
		r.w.name, r.untraced.episodes, r.traced.episodes, r.w.cycle, r.sim.fingerprint)
	for _, n := range r.notes {
		fmt.Fprintf(out, "check failed: %s\n", n)
	}
	e2e := r.endToEnd()
	var layer []metric
	if traced {
		layer = r.perLayer()
	}
	for _, m := range append(append([]metric(nil), e2e...), layer...) {
		fmt.Fprintf(out, "%-28s %14.6g %-6s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
	report := layer
	if !traced {
		report = e2e
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range report {
		ms[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, 0, ms}) // a failed Step aborts the run before this line
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// provenance records the host and code every result set came from.
func provenance() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code measured: the checked-out git revision
// when the benchmark runs inside a git work tree, else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
