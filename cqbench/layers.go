package main

import (
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/place"
	"cloudqc/internal/sched"
)

// Span names: one per layer boundary the traced run wraps.
const (
	spanPlace   = "place"
	spanSched   = "sched"
	spanStep    = "core.step"
	spanSubmit  = "core.submit"
	spanService = "service"
	spanQASM    = "qasm"
	spanReplay  = "service.replay"
	spanWALOpen = "wal.open"
)

// spanStats aggregates the spans of one name: how many ended, how many
// reported failure, their summed duration, and that duration minus the
// time their child spans covered.
type spanStats struct {
	calls, failed int
	busy, self    time.Duration
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

// tracer records spans around the calls the benchmark makes into each
// layer, plus plain event counts. Spans nest by call order: a span that
// begins while another is open is its child. Work reaches the tracer
// from one goroutine at a time (the benchmark's own loop, or the single
// HTTP connection's handler), so one stack describes the nesting; the
// mutex orders the handover between goroutines. Spans are aggregated by
// name as they end rather than kept individually, which bounds memory
// on runs of a hundred thousand jobs.
type tracer struct {
	mu     sync.Mutex
	stack  []openSpan
	spans  map[string]spanStats
	counts map[string]int
}

func newTracer() *tracer {
	return &tracer{spans: map[string]spanStats{}, counts: map[string]int{}}
}

func (t *tracer) begin(name string) {
	t.mu.Lock()
	t.stack = append(t.stack, openSpan{name: name, start: time.Now()})
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end(failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(top.start)
	s := t.spans[top.name]
	s.calls++
	if failed {
		s.failed++
	}
	s.busy += d
	s.self += d - top.child
	t.spans[top.name] = s
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) count(name string, n int) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// tracedPlacer wraps a deterministic placer. It must keep the
// place.DeterministicPlacer marker: without it the controller turns its
// plan cache off and the traced run would stop matching the untraced
// one, which the output checks catch.
type tracedPlacer struct {
	inner place.DeterministicPlacer
	t     *tracer
}

func (p tracedPlacer) Name() string { return p.inner.Name() }

func (p tracedPlacer) Place(cl *cloud.Cloud, c *circuit.Circuit) (*place.Placement, error) {
	p.t.begin(spanPlace)
	pl, err := p.inner.Place(cl, c)
	p.t.end(err != nil)
	return pl, err
}

func (tracedPlacer) DeterministicPlacement() {}

// tracedPolicy wraps an EPR allocation policy, counting the requests
// each round carries and how many of them were granted pairs.
type tracedPolicy struct {
	inner sched.Policy
	t     *tracer
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Allocate(reqs []sched.Request, budget []int, rng *rand.Rand) map[sched.NodeKey]int {
	n := len(reqs)
	p.t.begin(spanSched)
	alloc := p.inner.Allocate(reqs, budget, rng)
	p.t.end(false)
	granted := 0
	for _, pairs := range alloc {
		if pairs > 0 {
			granted++
		}
	}
	p.t.count("sched.requests", n)
	p.t.count("sched.grants", granted)
	return alloc
}

// tracedHandler wraps the daemon's HTTP handler.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.t.begin(spanService)
	h.inner.ServeHTTP(w, r)
	h.t.end(false)
}

// placer builds the CloudQC placer, wrapped when t is tracing (t is
// nil for an untraced run).
func (t *tracer) placer(seed int64) place.Placer {
	cfg := place.DefaultConfig()
	cfg.Seed = seed
	p := place.NewCloudQC(cfg)
	if t == nil {
		return p
	}
	return tracedPlacer{inner: p, t: t}
}

// policy wraps p when t is tracing.
func (t *tracer) policy(p sched.Policy) sched.Policy {
	if t == nil {
		return p
	}
	return tracedPolicy{inner: p, t: t}
}

// span runs fn, inside a span when t is tracing.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.begin(name)
	err := fn()
	t.end(err != nil)
	return err
}

// phase is the span and count activity between two snapshots.
type phase struct {
	spans  map[string]spanStats
	counts map[string]int
}

// mark snapshots the aggregates so far.
func (t *tracer) mark() phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := phase{spans: make(map[string]spanStats, len(t.spans)), counts: make(map[string]int, len(t.counts))}
	for k, v := range t.spans {
		p.spans[k] = v
	}
	for k, v := range t.counts {
		p.counts[k] = v
	}
	return p
}

// since is the activity from an earlier mark to now.
func (t *tracer) since(prev phase) phase {
	p := t.mark()
	for k, v := range prev.spans {
		s := p.spans[k]
		s.calls -= v.calls
		s.failed -= v.failed
		s.busy -= v.busy
		s.self -= v.self
		p.spans[k] = s
	}
	for k, v := range prev.counts {
		p.counts[k] -= v
	}
	return p
}

// sumPhases adds up the phases of tracers that followed different
// goroutines; busy times then sum over the goroutines.
func sumPhases(ps []phase) phase {
	sum := phase{spans: map[string]spanStats{}, counts: map[string]int{}}
	for _, p := range ps {
		for k, v := range p.spans {
			s := sum.spans[k]
			s.calls += v.calls
			s.failed += v.failed
			s.busy += v.busy
			s.self += v.self
			sum.spans[k] = s
		}
		for k, v := range p.counts {
			sum.counts[k] += v
		}
	}
	return sum
}

// perLayer lists every per-layer metric with its unit, in report order.
// A layer a workload does not run reports zero.
var perLayer = []struct{ name, unit string }{
	{"place.calls", "count"}, {"place.failed", "count"}, {"place.ok_ratio", "ratio"},
	{"place.busy_s", "s"}, {"place.setup_calls", "count"}, {"place.setup_busy_s", "s"},
	{"plan.hits", "count"}, {"plan.misses", "count"}, {"plan.evictions", "count"}, {"plan.hit_ratio", "ratio"},
	{"sched.alloc_calls", "count"}, {"sched.alloc_busy_s", "s"}, {"sched.requests", "count"}, {"sched.grants", "count"},
	{"core.rounds", "count"}, {"core.events", "count"},
	{"core.step_busy_s", "s"}, {"core.submit_busy_s", "s"}, {"core.self_s", "s"},
	{"fed.affinity_hits", "count"}, {"fed.spills", "count"}, {"fed.cold", "count"},
	{"service.handler_busy_s", "s"}, {"service.transport_s", "s"}, {"service.replay_s", "s"},
	{"wal.records", "count"}, {"wal.bytes", "B"}, {"wal.syncs", "count"}, {"wal.sync_s", "s"}, {"wal.open_s", "s"},
	{"qasm.parse_s", "s"},
	{"trace.base_jobs_per_s", "1/s"}, {"trace.overhead_jobs_per_s", "1/s"},
}

// setLayerMetrics reports the spans of the set-up and measured phases
// of a traced run, the plan-cache and engine counters the workload
// read from the layers, and the tracing overhead (traced minus
// untraced jobs_per_s, with the untraced base); every other per-layer
// metric reports zero.
func setLayerMetrics(rep *report, setup, measured phase, c counters, base, traced float64) {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
	set := func(name string, v float64) { rep.set(name, v, units[name]) }
	pl := measured.spans[spanPlace]
	set("place.calls", float64(pl.calls))
	set("place.failed", float64(pl.failed))
	if pl.calls > 0 {
		set("place.ok_ratio", float64(pl.calls-pl.failed)/float64(pl.calls))
	}
	set("place.busy_s", pl.busy.Seconds())
	set("place.setup_calls", float64(setup.spans[spanPlace].calls))
	set("place.setup_busy_s", setup.spans[spanPlace].busy.Seconds())
	set("plan.hits", float64(c.Plan.Hits))
	set("plan.misses", float64(c.Plan.Misses))
	set("plan.evictions", float64(c.Plan.Evictions))
	if n := c.Plan.Hits + c.Plan.Misses; n > 0 {
		set("plan.hit_ratio", float64(c.Plan.Hits)/float64(n))
	}
	sc := measured.spans[spanSched]
	set("sched.alloc_calls", float64(sc.calls))
	set("sched.alloc_busy_s", sc.busy.Seconds())
	set("sched.requests", float64(measured.counts["sched.requests"]))
	set("sched.grants", float64(measured.counts["sched.grants"]))
	set("core.rounds", float64(c.Run.Rounds))
	set("core.events", float64(c.Run.Events))
	step, sub := measured.spans[spanStep], measured.spans[spanSubmit]
	set("core.step_busy_s", step.busy.Seconds())
	set("core.submit_busy_s", sub.busy.Seconds())
	set("core.self_s", (step.self + sub.self).Seconds())
	set("service.handler_busy_s", measured.spans[spanService].busy.Seconds())
	set("service.replay_s", setup.spans[spanReplay].busy.Seconds())
	set("wal.open_s", setup.spans[spanWALOpen].busy.Seconds())
	set("qasm.parse_s", setup.spans[spanQASM].busy.Seconds())
	set("trace.base_jobs_per_s", base)
	set("trace.overhead_jobs_per_s", traced-base)
}
