package main

import (
	"math/rand"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
)

// The variational templates tenants resubmit, and the tenants' WFQ
// weights (tenant i has weight tenantWeights[i]).
var (
	streamTemplates = []string{"vqe_uccsd_n24", "qaoa_n32", "ising_n34", "qugan_n39"}
	tenantWeights   = []int{1, 2, 4}
)

const (
	// streamCadence is the virtual time between arrivals, in CX units.
	// On streamCloud jobs then overlap often enough that the plan
	// cache holds 12 plans (4 templates in 3 free-capacity states), all
	// compiled within the warm-up, and never misses afterwards. At 1700
	// CX and above jobs never overlap (4 plans); at 1200 CX misses keep
	// arriving, about 6 per 1000 jobs; at 500 CX the cache thrashes.
	streamCadence = 1500
	// streamWarmup is the prefix of each cloud's stream the set-up runs
	// to fill its plan cache.
	streamWarmup = 1000
	// streamChecked is how many measured jobs sim_jct_mean_cx averages,
	// split evenly over the clouds: a fixed count, so the metric depends
	// on the seed alone; the measured phase always runs streamMargin jobs
	// per cloud past it.
	streamChecked = 20000
	streamMargin  = 64
	// streamSetupReps is how often a run repeats the set-up.
	streamSetupReps = 3
)

// streamCloud is the deployed cloud: a fixed random topology (20 QPUs,
// edge probability 0.3, 20 computing and 5 communication qubits each),
// the same for every seed.
func streamCloud() *cloud.Cloud { return cloud.NewRandom(20, 0.3, 20, 5, 11) }

// streamGen generates the seeded job stream: job k is a random template
// from a random tenant, arriving at k·streamCadence.
type streamGen struct {
	rng *rand.Rand
	k   int
}

func newStreamGen(seed int64) *streamGen {
	return &streamGen{rng: rand.New(rand.NewSource(subSeed(seed, 100)))}
}

// next returns the next job's index, template and tenant.
func (g *streamGen) next() (k, template, tenant int) {
	k = g.k
	g.k++
	return k, g.rng.Intn(len(streamTemplates)), g.rng.Intn(len(tenantWeights))
}

func (g *streamGen) job(circs []*circuit.Circuit) *core.Job {
	k, tpl, tenant := g.next()
	return &core.Job{
		ID:       k,
		Circuit:  circs[tpl],
		Arrival:  float64(k * streamCadence),
		Tenant:   tenant,
		Priority: tenantWeights[tenant],
	}
}

func streamCircuits() []*circuit.Circuit {
	var circs []*circuit.Circuit
	for _, name := range streamTemplates {
		circs = append(circs, qlib.MustBuild(name))
	}
	return circs
}

// streamRun is a live controller part-way through its stream.
type streamRun struct {
	lc   *core.LiveController
	gen  *streamGen
	t    *tracer
	circ []*circuit.Circuit
}

// step submits the stream's next job and advances the clock to its
// arrival, the same operations the daemon performs per submission.
func (s *streamRun) step() error {
	j := s.gen.job(s.circ)
	if err := s.t.span(spanSubmit, func() error { return s.lc.Submit(j) }); err != nil {
		return err
	}
	return s.t.span(spanStep, func() error { return s.lc.StepUntil(j.Arrival) })
}

// streamSet is warm-stream's system: streamClouds independent clouds,
// each with its own WFQ live controller and its own seeded stream, fed
// round-robin. Which plans a controller caches depends on the order its
// warm-up happened to meet each free-capacity state, and that history
// then sets its rounds per job for the whole run; four histories per
// run keep the figures from following any single one.
type streamSet struct {
	runs []*streamRun
	next int
}

const streamClouds = 4

// streamSetUp builds the clouds and their WFQ live controllers with the
// tenant-weighted EPR policy, and runs the warm-up prefix of every
// stream.
func streamSetUp(seed int64, circs []*circuit.Circuit, t *tracer) (*streamSet, error) {
	set := &streamSet{}
	for i := 0; i < streamClouds; i++ {
		s := subSeed(seed, 101+i)
		lc, err := core.NewLiveController(core.Config{
			Cloud:  streamCloud(),
			Placer: t.placer(s),
			Policy: t.policy(sched.NewTenantWeightedPolicy()),
			Mode:   core.WFQMode,
			Seed:   s,
		})
		if err != nil {
			return nil, err
		}
		set.runs = append(set.runs, &streamRun{lc: lc, gen: newStreamGen(s), t: t, circ: circs})
	}
	for k := 0; k < streamWarmup*streamClouds; k++ {
		if err := set.step(); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// step feeds the next cloud its next job.
func (s *streamSet) step() error {
	r := s.runs[s.next]
	s.next = (s.next + 1) % len(s.runs)
	return r.step()
}

// counters sums the deterministic totals of every cloud so far.
func (s *streamSet) counters() counters {
	var all []*core.JobResult
	var c counters
	for _, r := range s.runs {
		all = append(all, r.lc.SettledResults()...)
		c = addCounters(c, r.lc.RunStats(), r.lc.PlanCacheStats())
	}
	c.Digest, c.MeanJCT = resultsDigest(all), meanJCT(all)
	return c
}

// drain runs every cloud dry and returns the measured jobs' results of
// each, in submission order.
func (s *streamSet) drain() ([][]*core.JobResult, error) {
	var out [][]*core.JobResult
	for _, r := range s.runs {
		var res []*core.JobResult
		err := r.t.span(spanStep, func() (err error) {
			res, err = r.lc.Drain()
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res[streamWarmup:])
	}
	return out, nil
}

// streamFixedJobs is the fixed part of the measured phase: every cloud
// runs streamMargin jobs past the streamChecked/streamClouds whose mean
// JCT is reported.
const streamFixedJobs = streamChecked + streamMargin*streamClouds

// checkedJobs concatenates each cloud's first streamChecked/streamClouds
// measured jobs, checks that every measured job completed, and returns
// them with the count that completed.
func checkedJobs(rep *report, measured [][]*core.JobResult, n int) ([]*core.JobResult, int) {
	var checked, all []*core.JobResult
	for _, res := range measured {
		checked = append(checked, res[:streamChecked/streamClouds]...)
		all = append(all, res...)
	}
	return checked, checkSettled(rep, "warm-stream", all, n)
}

func runWarmStream(o options) (*report, error) {
	rep := newReport()
	circs := streamCircuits()
	if o.trace {
		return rep, streamTraced(o, circs, rep)
	}

	var (
		setups []float64
		ref    counters
		set    *streamSet
		err    error
	)
	for r := 0; r < streamSetupReps; r++ {
		settle()
		start := time.Now()
		if set, err = streamSetUp(o.seed, circs, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		c := set.counters()
		if r == 0 {
			ref = c
		}
		rep.check(c == ref, "warm-stream: set-up %d (%v) differs from set-up 0 (%v)", r, c, ref)
	}

	// Measured phase: keep the streams going until the run length is
	// reached and at least streamFixedJobs jobs arrived. The peak RSS is
	// taken at that fixed point, so it does not grow with the
	// throughput.
	settle()
	lat := make([]float64, 0, 1<<18)
	m := newMeter(o.seconds)
	var rss float64
	n := 0
	for ; n < streamFixedJobs || n%streamClouds != 0 || m.elapsed() < o.seconds; n++ {
		t0 := time.Now()
		if err := set.step(); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t0).Seconds())
		m.add(1)
		if n+1 == streamFixedJobs {
			rss = peakRSSMB()
		}
	}
	m.stop()
	measured, err := set.drain()
	if err != nil {
		return nil, err
	}

	checked, completed := checkedJobs(rep, measured, n)
	rep.attempted, rep.failed = n, n-completed
	rep.set("setup_s", median(setups), "s")
	m.report(rep)
	rep.set("ok_ratio", float64(completed)/float64(n), "ratio")
	rep.set("sim_jct_mean_cx", meanJCT(checked), "CX")
	rep.set("peak_rss_mb", rss, "MB")
	setLatency(rep, lat, "LiveController Submit plus StepUntil to the job's arrival")
	rep.notes["counters"] = set.counters().String()
	return rep, nil
}

// streamFixed runs the set-up and then exactly streamFixedJobs measured
// jobs, drains, and returns the run's totals (the checked jobs' digest
// and mean JCT, and every counter), the measured phase's counters, the
// traced phases and the measured rate.
func streamFixed(o options, circs []*circuit.Circuit, t *tracer, rep *report) (total, delta counters, setup, measured phase, rate float64, err error) {
	settle()
	set, err := streamSetUp(o.seed, circs, t)
	if err != nil {
		return
	}
	settle()
	if t != nil {
		setup = t.mark()
	}
	before := set.counters()
	start := time.Now()
	for k := 0; k < streamFixedJobs; k++ {
		if err = set.step(); err != nil {
			return
		}
	}
	results, err := set.drain()
	if err != nil {
		return
	}
	rate = float64(streamFixedJobs) / time.Since(start).Seconds()
	if t != nil {
		measured = t.since(setup)
	}
	checked, _ := checkedJobs(rep, results, streamFixedJobs)
	total = set.counters()
	total.Digest, total.MeanJCT = resultsDigest(checked), meanJCT(checked)
	delta = counterDelta(total, before)
	return
}

// streamTraced runs the fixed stream untraced and traced; the two runs
// must agree exactly.
func streamTraced(o options, circs []*circuit.Circuit, rep *report) error {
	base, _, _, _, baseRate, err := streamFixed(o, circs, nil, rep)
	if err != nil {
		return err
	}
	t := newTracer()
	c, delta, setup, measured, rate, err := streamFixed(o, circs, t, rep)
	if err != nil {
		return err
	}
	rep.check(c == base, "warm-stream: traced run (%v) differs from untraced run (%v)", c, base)
	rep.attempted, rep.failed = 2*streamFixedJobs, 0
	setLayerMetrics(rep, setup, measured, delta, baseRate, rate)
	rep.notes["counters"] = c.String()
	return nil
}
