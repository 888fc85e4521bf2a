package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloudqc/internal/circuit"
	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/qasm"
	"cloudqc/internal/qlib"
	"cloudqc/internal/sched"
	"cloudqc/internal/workload"
)

const (
	// paperBatchSize is each workload's batch: a multiple of every pool
	// size (6, 3, 3 and 4 circuits), so every circuit of a pool appears
	// equally often and the seed orders the batch and drives EPR sampling
	// without changing the mix.
	paperBatchSize = 12
	// paperBatchesPerPool is how many independent batches each pool
	// contributes. How much placement work a batch costs depends on the
	// order its EPR rounds happen to free capacity in: with one batch per
	// pool the seed alone moved jobs_per_s by a fifth, and with two per
	// pool the CPU time per job still spread 0.18 (IQR / median) over ten
	// seeds in one process, so a run averages over four per pool.
	paperBatchesPerPool = 4
	// paperTracedPerPool is the batches per pool of the traced
	// invocation, which runs its pass twice (untraced, then traced); at
	// four per pool that took about two minutes, too close to the time a
	// run may take.
	paperTracedPerPool = 2
	// paperWorkers is how many goroutines run the batches: batch i runs
	// on worker i%paperWorkers, so each worker holds the same share of
	// every pool.
	paperWorkers = 2
	// paperSetupReps is how often a run repeats the set-up: half of the
	// repeats before the measured phase and half after it, so that
	// setup_s and the parse latencies sample the host over the whole run
	// rather than over its first seconds. Each job's submission latency
	// is the median of its parse times over the repeats, so a GC cycle or
	// a stall during one parse does not move it.
	paperSetupReps = 10
)

// paperInput is paper-batch's generated input: for each of the four
// workloads behind Figs 14-17, perPool batches of OpenQASM programs in
// job-id order, with each batch's pool and controller seed.
type paperInput struct {
	texts [][]string
	names [][]string
	pools []int
	seeds []int64
}

func paperInputs(seed int64, perPool int) paperInput {
	var in paperInput
	qasmOf := map[string]string{}
	pools := workload.All()
	for i := 0; i < len(pools)*perPool; i++ {
		wi := i / perPool
		w := pools[wi]
		s := subSeed(seed, i)
		rng := rand.New(rand.NewSource(s))
		var texts, names []string
		for _, k := range rng.Perm(paperBatchSize) {
			name := w.Circuits[k%len(w.Circuits)]
			if _, ok := qasmOf[name]; !ok {
				qasmOf[name] = qasm.Write(qlib.MustBuild(name))
			}
			texts = append(texts, qasmOf[name])
			names = append(names, name)
		}
		in.texts = append(in.texts, texts)
		in.names = append(in.names, names)
		in.pools = append(in.pools, wi)
		in.seeds = append(in.seeds, s)
	}
	return in
}

// paperCloud is the deployed cloud of pool wi: a fixed random topology
// (20 QPUs, edge probability 0.3, 20 computing and 5 communication
// qubits each), the same for every seed.
func paperCloud(wi int) *cloud.Cloud { return cloud.NewRandom(20, 0.3, 20, 5, int64(wi)+1) }

// paperRun is one set-up's product: every batch's jobs and a fresh
// controller per batch.
type paperRun struct {
	jobs [][]*core.Job
	ctls []*core.Controller
}

// paperTracers gives every worker its own tracer, since a tracer
// follows the nesting of one goroutine; untraced, every entry is nil.
func paperTracers(traced bool) []*tracer {
	ts := make([]*tracer, paperWorkers)
	for w := range ts {
		if traced {
			ts[w] = newTracer()
		}
	}
	return ts
}

// paperControllers builds one fresh controller per batch, wrapped for
// the worker that will run it.
func paperControllers(in paperInput, ts []*tracer) ([]*core.Controller, error) {
	var ctls []*core.Controller
	for i, s := range in.seeds {
		t := ts[i%paperWorkers]
		ct, err := core.NewController(core.Config{
			Cloud:  paperCloud(in.pools[i]),
			Placer: t.placer(s),
			Policy: t.policy(sched.CloudQCPolicy{}),
			Mode:   core.BatchMode,
			Seed:   s,
		})
		if err != nil {
			return nil, err
		}
		ctls = append(ctls, ct)
	}
	return ctls, nil
}

// paperSetUp parses every job's circuit from its OpenQASM text, as the
// paper's QASMBench inputs arrive, and builds the clouds and
// controllers. It returns each parse's duration.
func paperSetUp(in paperInput, ts []*tracer) (paperRun, []float64, error) {
	var (
		run    paperRun
		parses []float64
		t      = ts[0]
	)
	for wi, texts := range in.texts {
		var jobs []*core.Job
		for i, src := range texts {
			var c *circuit.Circuit
			start := time.Now()
			err := t.span(spanQASM, func() (err error) {
				c, err = qasm.Parse(in.names[wi][i], src)
				return err
			})
			parses = append(parses, time.Since(start).Seconds())
			if err != nil {
				return paperRun{}, nil, err
			}
			jobs = append(jobs, &core.Job{ID: i, Circuit: c})
		}
		run.jobs = append(run.jobs, jobs)
	}
	ctls, err := paperControllers(in, ts)
	run.ctls = ctls
	return run, parses, err
}

// paperPass runs every batch through Controller.Run on its worker and
// sums the deterministic counters in batch order.
func paperPass(run paperRun, ts []*tracer) (counters, []*core.JobResult, error) {
	res := make([][]*core.JobResult, len(run.ctls))
	errs := make([]error, len(run.ctls))
	var wg sync.WaitGroup
	for w := 0; w < paperWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(run.ctls); i += paperWorkers {
				errs[i] = ts[w].span(spanStep, func() (err error) {
					res[i], err = run.ctls[i].Run(run.jobs[i])
					return err
				})
			}
		}(w)
	}
	wg.Wait()
	var (
		c   counters
		all []*core.JobResult
	)
	for i, ct := range run.ctls {
		if errs[i] != nil {
			return counters{}, nil, fmt.Errorf("paper-batch %d: %w", i, errs[i])
		}
		all = append(all, res[i]...)
		c = addCounters(c, ct.LastRunStats(), ct.PlanCacheStats())
	}
	c.Digest = resultsDigest(all)
	c.MeanJCT = meanJCT(all)
	return c, all, nil
}

func runPaperBatch(o options) (*report, error) {
	rep := newReport()
	if o.trace {
		in := paperInputs(o.seed, paperTracedPerPool)
		return rep, paperTraced(in, rep, len(in.seeds)*paperBatchSize)
	}
	in := paperInputs(o.seed, paperBatchesPerPool)
	jobsPerPass := len(in.seeds) * paperBatchSize

	var (
		setups  []float64
		samples []float64
		run     paperRun
		ref     []circuit.Fingerprint
	)
	// setUp times one set-up repeat and checks that it parsed the same
	// circuits as the first.
	setUp := func() (paperRun, error) {
		settle()
		start := time.Now()
		pr, parses, err := paperSetUp(in, paperTracers(false))
		if err != nil {
			return paperRun{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		samples = append(samples, parses...)
		var fps []circuit.Fingerprint
		for _, jobs := range pr.jobs {
			for _, j := range jobs {
				fps = append(fps, j.Circuit.Fingerprint())
			}
		}
		if ref == nil {
			ref = fps
		}
		rep.check(fmt.Sprint(fps) == fmt.Sprint(ref), "paper-batch: set-up %d parsed different circuits than set-up 0", len(setups)-1)
		return pr, nil
	}
	// Each repeat starts without the previous one's circuits alive.
	for r := 0; r < paperSetupReps/2; r++ {
		run = paperRun{}
		pr, err := setUp()
		if err != nil {
			return nil, err
		}
		run = pr
	}

	// Measured phase: whole passes over the batches until the run length
	// is reached; every pass after the first starts from fresh
	// controllers and must reproduce the first exactly.
	settle()
	cpu0, start := cpuSeconds(), time.Now()
	var first counters
	jobs, completed, passes := 0, 0, 0
	for passes == 0 || time.Since(start).Seconds() < o.seconds {
		if passes > 0 {
			ctls, err := paperControllers(in, paperTracers(false))
			if err != nil {
				return nil, err
			}
			run.ctls = ctls
		}
		c, results, err := paperPass(run, paperTracers(false))
		if err != nil {
			return nil, err
		}
		completed += checkSettled(rep, fmt.Sprintf("paper-batch pass %d", passes), results, jobsPerPass)
		if passes == 0 {
			first = c
		} else {
			rep.check(c == first, "paper-batch: pass %d (%v) differs from pass 0 (%v)", passes, c, first)
		}
		jobs += jobsPerPass
		passes++
	}
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
	rss := peakRSSMB()
	run = paperRun{}
	for r := paperSetupReps / 2; r < paperSetupReps; r++ {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}

	rep.attempted, rep.failed = jobs, jobs-completed
	rep.set("setup_s", median(setups), "s")
	rep.set("jobs_per_s", float64(completed)/wall, "1/s")
	rep.set("ok_ratio", float64(completed)/float64(jobs), "ratio")
	rep.set("sim_jct_mean_cx", first.MeanJCT, "CX")
	rep.set("cpu_ms_per_job", cpu*1e3/float64(completed), "ms")
	rep.set("peak_rss_mb", rss, "MB")
	var names []string
	for _, ns := range in.names {
		names = append(names, ns...)
	}
	setJobLatency(rep, samples, names)
	rep.notes["passes"] = passes
	rep.notes["measured_s"] = wall
	rep.notes["counters"] = first.String()
	return rep, nil
}

// setJobLatency reports the submission latency of paper-batch: samples
// holds every set-up repeat's parse times in job order, one repeat after
// another, and names the circuit of each job. A job's latency is the
// median parse time of its circuit over every repeat and every job that
// carries it, and submit_p50_ms and submit_p95_ms are quantiles over the
// jobs. A set-up allocates in the same order every repeat, so GC cycles
// hit the same positions each time: a median per job kept those hits, and
// which copies of a circuit the seed put there moved the p95 by 0.14
// (IQR / median) over ten seeds. The mix of circuits is fixed, so the
// same circuits stand at each quantile on every seed.
func setJobLatency(rep *report, samples []float64, names []string) {
	byCircuit := map[string][]float64{}
	for i, x := range samples {
		n := names[i%len(names)]
		byCircuit[n] = append(byCircuit[n], x)
	}
	perJob := make([]float64, len(names))
	for j, n := range names {
		perJob[j] = median(byCircuit[n])
	}
	rep.set("submit_p50_ms", median(perJob)*1e3, "ms")
	rep.set("submit_p95_ms", quantile(perJob, 0.95)*1e3, "ms")
	rep.notes["submit_p99_ms"] = quantile(perJob, 0.99) * 1e3
	rep.notes["submit_samples"] = len(samples)
	rep.notes["submit_is"] = "OpenQASM parse during set-up, per job the median over its circuit's parses"
}

// paperTraced runs one untraced and one traced pass over the same input
// and reports the traced pass's per-layer numbers; the two passes must
// agree exactly.
func paperTraced(in paperInput, rep *report, jobsPerPass int) error {
	run, _, err := paperSetUp(in, paperTracers(false))
	if err != nil {
		return err
	}
	settle()
	start := time.Now()
	base, results, err := paperPass(run, paperTracers(false))
	if err != nil {
		return err
	}
	baseRate := float64(len(results)) / time.Since(start).Seconds()
	done := checkSettled(rep, "paper-batch untraced", results, jobsPerPass)

	ts := paperTracers(true)
	run, _, err = paperSetUp(in, ts)
	if err != nil {
		return err
	}
	settle()
	setups := make([]phase, len(ts))
	for w, t := range ts {
		setups[w] = t.mark()
	}
	start = time.Now()
	c, results, err := paperPass(run, ts)
	if err != nil {
		return err
	}
	rate := float64(len(results)) / time.Since(start).Seconds()
	measured := make([]phase, len(ts))
	for w, t := range ts {
		measured[w] = t.since(setups[w])
	}
	done += checkSettled(rep, "paper-batch traced", results, jobsPerPass)
	rep.check(c == base, "paper-batch: traced pass (%v) differs from untraced pass (%v)", c, base)

	rep.attempted = 2 * jobsPerPass
	rep.failed = rep.attempted - done
	setLayerMetrics(rep, sumPhases(setups), sumPhases(measured), c, baseRate, rate)
	rep.notes["counters"] = c.String()
	return nil
}
