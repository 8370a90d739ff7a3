package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cuttlesys"
)

// collector is the traced run's cuttlesys.Collector. It keeps every
// wall sample the program's instrumented phases report, counts metric
// updates through the embedded recorder's registry, and drops trace
// events: the per-layer figures need only walls and counters.
type collector struct {
	*cuttlesys.TraceRecorder
	mu    sync.Mutex
	walls map[string][]wallSample
}

type wallSample struct {
	ns    int64
	alloc uint64
}

func newCollector() *collector {
	return &collector{TraceRecorder: cuttlesys.NewTraceRecorder(), walls: map[string][]wallSample{}}
}

// Emit drops trace events.
func (c *collector) Emit(cuttlesys.TraceEvent) {}

// Wall keeps one phase sample. Fleet machines report from their own
// goroutines, hence the lock.
func (c *collector) Wall(phase string, wallNs int64, allocBytes uint64) {
	c.mu.Lock()
	c.walls[phase] = append(c.walls[phase], wallSample{wallNs, allocBytes})
	c.mu.Unlock()
}

// span records one of the benchmark's own spans around a public call.
func (c *collector) span(name string, d time.Duration) {
	c.Wall("bench."+name, d.Nanoseconds(), 0)
}

// counters sums every counter series by metric name.
func (c *collector) counters() map[string]float64 {
	out := map[string]float64{}
	for _, s := range c.Registry().Snapshot() {
		if s.Kind == "counter" {
			out[s.Name] += s.Value
		}
	}
	return out
}

// The program's metric names (internal/obs/names.go) the per-layer
// counts read.
const (
	metricSlices     = "cuttlesys_slices_total"
	metricSGDIters   = "cuttlesys_core_sgd_iterations_total"
	metricEvals      = "cuttlesys_core_search_evals_total"
	metricDimsScored = "cuttlesys_core_search_dims_scored_total"
	metricDimsSaved  = "cuttlesys_core_search_dims_saved_total"
	metricFallbacks  = "cuttlesys_core_fallback_slices_total"
	metricRetries    = "cuttlesys_profile_retries_total"
)

// counts are the deterministic work counters of one episode.
type counts struct {
	slices, sgdIters, evals, dimsScored, dimsSaved float64
	fallbacks, retries                             float64
	tableBuilds, tableLookups                      uint64
	publishes, warmStarts, samplingQuanta          int
	joins, evictions, transitions                  int
}

func (c *counts) add(o counts) {
	c.slices += o.slices
	c.sgdIters += o.sgdIters
	c.evals += o.evals
	c.dimsScored += o.dimsScored
	c.dimsSaved += o.dimsSaved
	c.fallbacks += o.fallbacks
	c.retries += o.retries
	c.tableBuilds += o.tableBuilds
	c.tableLookups += o.tableLookups
	c.publishes += o.publishes
	c.warmStarts += o.warmStarts
	c.samplingQuanta += o.samplingQuanta
	c.joins += o.joins
	c.evictions += o.evictions
	c.transitions += o.transitions
}

func episodeCounts(col *collector, e *episode, out outcome) counts {
	m := col.counters()
	c := counts{
		slices:     m[metricSlices],
		sgdIters:   m[metricSGDIters],
		evals:      m[metricEvals],
		dimsScored: m[metricDimsScored],
		dimsSaved:  m[metricDimsSaved],
		fallbacks:  m[metricFallbacks],
		retries:    m[metricRetries],
		joins:      out.joins,
		evictions:  out.evictions,

		transitions: out.transitions,
	}
	c.tableBuilds, c.tableLookups = e.fleet.SurfaceStats()
	if e.plane != nil {
		c.publishes, _, c.warmStarts = e.plane.Totals()
	}
	for _, rt := range e.runtimes {
		c.samplingQuanta += rt.SamplingQuanta()
	}
	return c
}

// phaseTotal accumulates one phase's wall samples across episodes.
type phaseTotal struct {
	n     int
	ns    float64
	alloc float64
}

// layerTotals folds the traced episodes: wall totals per phase, and
// the work counters of each sub-seed's first traced episode, which
// every later traced episode of that sub-seed must repeat exactly.
type layerTotals struct {
	phases map[string]*phaseTotal
	first  map[*cuttlesys.CompiledScenario]counts
	cycle  counts
	drift  []string
}

func newLayerTotals() *layerTotals {
	return &layerTotals{phases: map[string]*phaseTotal{}, first: map[*cuttlesys.CompiledScenario]counts{}}
}

func (l *layerTotals) phase(name string) *phaseTotal {
	p := l.phases[name]
	if p == nil {
		p = &phaseTotal{}
		l.phases[name] = p
	}
	return p
}

func (l *layerTotals) add(col *collector, e *episode, out outcome) {
	names := make([]string, 0, len(col.walls))
	for name := range col.walls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := l.phase(name)
		for _, s := range col.walls[name] {
			p.n++
			p.ns += float64(s.ns)
			p.alloc += float64(s.alloc)
		}
	}
	c := episodeCounts(col, e, out)
	ref, seen := l.first[e.c]
	switch {
	case !seen:
		l.first[e.c] = c
		l.cycle.add(c)
	case c != ref:
		l.drift = append(l.drift, fmt.Sprintf("work counters of a repeated episode differ: %+v, first %+v", c, ref))
	}
}

// meanMs is a phase's mean wall time per sample.
func (l *layerTotals) meanMs(name string) float64 {
	p := l.phase(name)
	if p.n == 0 {
		return 0
	}
	return p.ns / float64(p.n) / 1e6
}

// perLayer derives the per-layer metrics. Times are means per call,
// not medians, so a parent phase's mean splits exactly into its
// children's. Counts are per cycle (one episode per sub-seed).
func (r *result) perLayer() []metric {
	l := r.layers
	ph := l.phase
	decisions := ph("core.reconstruct").n
	slices := ph("harness.slice").n
	quanta := ph("bench.step").n
	perCall := func(ns float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n) / 1e6
	}
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rest := ph("core.observe").ns + ph("core.scan").ns + ph("core.budget").ns + ph("core.feedback").ns
	hold := ph("harness.slice").ns - ph("harness.decide").ns - ph("core.feedback").ns
	c := l.cycle

	var parse, compile, build []float64
	for _, s := range r.setup {
		parse = append(parse, s.ParseS*1e3)
		compile = append(compile, s.CompileS*1e3)
		build = append(build, s.BuildS*1e3)
	}
	untracedMean, tracedMean := mean(r.untraced.stepNs), mean(r.traced.stepNs)
	steps := len(r.untraced.stepNs)

	return []metric{
		{"scenario.parse_ms", median(parse), "ms", len(parse)},
		{"scenario.compile_ms", median(compile), "ms", len(compile)},
		{"scenario.build_ms", median(build), "ms", len(build)},
		{"sgd.reconstruct_ms", l.meanMs("core.reconstruct"), "ms", decisions},
		{"sgd.iterations", c.sgdIters, "count", 1},
		{"sgd.alloc_kb", frac(ph("core.reconstruct").alloc, float64(decisions)) / 1024, "KiB", decisions},
		{"dds.search_ms", l.meanMs("core.search"), "ms", ph("core.search").n},
		{"dds.evals", c.evals, "count", 1},
		{"dds.dims_scored", c.dimsScored, "count", 1},
		{"dds.dims_saved_frac", frac(c.dimsSaved, c.dimsScored+c.dimsSaved), "frac", 1},
		{"core.rest_ms", perCall(rest, decisions), "ms", decisions},
		{"core.fallback_frac", frac(c.fallbacks, c.slices), "frac", 1},
		{"core.sampling_quanta", float64(c.samplingQuanta), "count", 1},
		{"harness.decide_ms", l.meanMs("harness.decide"), "ms", ph("harness.decide").n},
		{"harness.hold_ms", perCall(hold, slices), "ms", slices},
		{"harness.profile_retries", c.retries, "count", 1},
		{"perf.table_builds", float64(c.tableBuilds), "count", 1},
		{"perf.table_lookups", float64(c.tableLookups), "count", 1},
		{"fleet.step_ms", l.meanMs("fleet.step"), "ms", ph("fleet.step").n},
		{"fleet.serial_ms", perCall(ph("fleet.slice").ns-ph("fleet.step").ns, ph("fleet.slice").n), "ms", ph("fleet.slice").n},
		{"fleet.busy_frac", frac(float64(r.traced.cpu), sum(r.traced.stepNs)*float64(runtime.GOMAXPROCS(0))), "frac", quanta},
		{"ctrlplane.reconcile_ms", perCall(ph("bench.step").ns-ph("fleet.slice").ns, quanta), "ms", quanta},
		{"ctrlplane.transitions", float64(c.transitions), "count", 1},
		{"ctrlplane.joins", float64(c.joins), "count", 1},
		{"ctrlplane.evictions", float64(c.evictions), "count", 1},
		{"modelplane.publishes", float64(c.publishes), "count", 1},
		{"modelplane.warm_starts", float64(c.warmStarts), "count", 1},
		{"host.alloc_mb_per_quantum", frac(float64(r.untraced.allocBytes), float64(steps)) / (1 << 20), "MiB", steps},
		{"host.gc_cycles", float64(r.untraced.gcCycles), "count", steps},
		{"host.peak_rss_mb", r.peakRSS, "MB", 1},
		{"trace.overhead_frac", frac(tracedMean, untracedMean) - 1, "frac", len(r.traced.stepNs)},
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
