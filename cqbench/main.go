// Command cqbench is the CloudQC end-to-end benchmark. It builds its
// inputs from a seed, drives one workload through the repository's
// public entry points, checks the outputs, and prints one JSON result
// line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the same workload runs twice on a fixed
// amount of work, untraced and then with every layer's entry points
// wrapped (see layers.go); the metrics are the per-layer counters and
// busy times, and the two runs must agree exactly.
//
// Usage (from the repository root; cqbench/run.sh builds and runs it):
//
//	cqbench -workload paper-batch|warm-stream|daemon-wal -seed N -seconds S -trace 0|1
//
// The process exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cloudqc/internal/core"
	"cloudqc/internal/plan"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the metrics of the
// requested mode, the operation counts, report-only notes printed
// before the result line, and every output check that failed.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	notes     map[string]any
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records a failed output check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(options) (*report, error){
	"paper-batch": runPaperBatch,
	"warm-stream": runWarmStream,
	"daemon-wal":  runDaemonWAL,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-batch, warm-stream or daemon-wal")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in wall seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer comparison instead of the end-to-end measurement")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cqbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqbench:", err)
		os.Exit(1)
	}
	rep.notes["workload"] = *name
	rep.notes["seed"] = *seed
	rep.notes["loc"] = lineCounts()
	notes, _ := json.Marshal(rep.notes)
	fmt.Printf("notes %s\n", notes)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "cqbench: check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// subSeed derives an independent stream seed from the run seed with
// the SplitMix64 finalizer.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// settle collects the garbage earlier phases left, so that neither the
// next timed phase nor the peak RSS pays for it.
func settle() { runtime.GC() }

// meterWindows is how many equal wall-clock windows a measured phase is
// split into.
const meterWindows = 20

// meter splits a measured phase into windows of equal wall time and
// keeps each window's throughput and CPU time per job. The reported
// figures are medians over the windows, so one stall (a GC cycle, a
// slow fsync, a busy neighbour) moves one window, not the whole run.
type meter struct {
	window           time.Duration
	start, wStart    time.Time
	end              time.Time // zero while the phase runs
	wCPU             float64
	wJobs, jobs      int
	rates, cpuPerJob []float64
}

func newMeter(seconds float64) *meter {
	now := time.Now()
	return &meter{
		window: time.Duration(seconds / meterWindows * float64(time.Second)),
		start:  now, wStart: now, wCPU: cpuSeconds(),
	}
}

// add counts n more jobs and closes the current window when its time
// is up.
func (m *meter) add(n int) {
	m.jobs += n
	m.wJobs += n
	if d := time.Since(m.wStart); d >= m.window {
		cpu := cpuSeconds()
		m.rates = append(m.rates, float64(m.wJobs)/d.Seconds())
		m.cpuPerJob = append(m.cpuPerJob, (cpu-m.wCPU)*1e3/float64(m.wJobs))
		m.wStart, m.wCPU, m.wJobs = time.Now(), cpu, 0
	}
}

func (m *meter) elapsed() float64 {
	if m.end.IsZero() {
		return time.Since(m.start).Seconds()
	}
	return m.end.Sub(m.start).Seconds()
}

// stop ends the measured phase.
func (m *meter) stop() { m.end = time.Now() }

// report sets jobs_per_s and cpu_ms_per_job from the window medians and
// notes the whole-phase figures beside them.
func (m *meter) report(rep *report) {
	rep.set("jobs_per_s", median(m.rates), "1/s")
	rep.set("cpu_ms_per_job", median(m.cpuPerJob), "ms")
	rep.notes["windows"] = len(m.rates)
	rep.notes["measured_s"] = m.elapsed()
	rep.notes["measured_jobs"] = m.jobs
	rep.notes["whole_phase_jobs_per_s"] = float64(m.jobs) / m.elapsed()
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (mean of the two middle values for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyBlock is how many consecutive latency samples one tail
// percentile is taken over: enough to leave ten samples beyond a p99.
const latencyBlock = 1000

// blockQuantile splits latency samples, in the order taken, into
// consecutive blocks of latencyBlock and returns the median of the
// blocks' q-quantiles, so one stall raises one block's tail rather than
// the reported figure. The caller guarantees at least one full block.
func blockQuantile(xs []float64, q float64) float64 {
	var qs []float64
	for i := 0; i+latencyBlock <= len(xs); i += latencyBlock {
		qs = append(qs, quantile(xs[i:i+latencyBlock], q))
	}
	return median(qs)
}

// setLatency reports submit_p50_ms over every sample and submit_p95_ms
// as blockQuantile, and notes the sample count and the p99 beside them.
// The p99 is report-only: with the log on disk it followed the host's
// fsync latency on daemon-wal and moved by 0.29 (IQR / median) between
// runs of the same code, more than any bound the benchmark may set.
func setLatency(rep *report, samples []float64, what string) {
	rep.set("submit_p50_ms", median(samples)*1e3, "ms")
	rep.set("submit_p95_ms", blockQuantile(samples, 0.95)*1e3, "ms")
	rep.notes["submit_p99_ms"] = blockQuantile(samples, 0.99) * 1e3
	rep.notes["submit_samples"] = len(samples)
	rep.notes["submit_is"] = what
}

// quantile is the nearest-rank q-quantile of xs (0 < q < 1), without
// reordering xs; the caller guarantees enough samples beyond it.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// resultsDigest hashes every result's identity and simulated outcome
// bitwise: two runs agree on it only if every job was placed at the same
// instant with the same remote-gate count and finished at the same time.
func resultsDigest(results []*core.JobResult) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%d %t %x %x %x %d;", r.Job.ID, r.Failed,
			math.Float64bits(r.PlacedAt), math.Float64bits(r.Finished), math.Float64bits(r.JCT), r.RemoteGates)
	}
	return h.Sum64()
}

// meanJCT averages completed jobs' simulated completion times.
func meanJCT(results []*core.JobResult) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if !r.Failed {
			sum += r.JCT
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// counters are the deterministic totals a run must reproduce exactly
// whatever its wall-clock speed.
type counters struct {
	Digest  uint64
	MeanJCT float64
	Run     core.RunStats
	Plan    plan.Stats
}

func (c counters) String() string {
	return fmt.Sprintf("digest %016x meanJCT %v rounds %d events %d plan %d/%d/%d",
		c.Digest, c.MeanJCT, c.Run.Rounds, c.Run.Events, c.Plan.Hits, c.Plan.Misses, c.Plan.Evictions)
}

// checkSettled checks that every one of want jobs settled and none
// failed to place, and returns how many completed.
func checkSettled(rep *report, what string, results []*core.JobResult, want int) int {
	failed := 0
	for _, r := range results {
		if r.Failed {
			failed++
		}
	}
	rep.check(len(results) == want && failed == 0, "%s: %d of %d jobs settled, %d failed to place", what, len(results), want, failed)
	return len(results) - failed
}

// addCounters adds one controller's engine and plan-cache counters.
func addCounters(c counters, rs core.RunStats, ps plan.Stats) counters {
	c.Run.Rounds += rs.Rounds
	c.Run.Events += rs.Events
	c.Plan.Hits += ps.Hits
	c.Plan.Misses += ps.Misses
	c.Plan.Evictions += ps.Evictions
	c.Plan.Size += ps.Size
	return c
}

// counterDelta is the engine and plan-cache activity from before to c.
func counterDelta(c, before counters) counters {
	c.Run.Rounds -= before.Run.Rounds
	c.Run.Events -= before.Run.Events
	c.Plan.Hits -= before.Plan.Hits
	c.Plan.Misses -= before.Plan.Misses
	c.Plan.Evictions -= before.Plan.Evictions
	return c
}

// layerDirs are the internal packages whose non-test line counts the
// benchmark reports next to its metrics (report-only).
var layerDirs = []string{
	"graph", "partition", "community", "place", "plan", "sched", "epr",
	"des", "core", "fed", "service", "wal", "qasm",
}

// lineCounts counts non-test Go source lines per layer package under
// internal/ of the checkout the benchmark runs in; a package that
// cannot be read is reported as -1.
func lineCounts() map[string]int {
	out := make(map[string]int, len(layerDirs)+1)
	total := 0
	for _, dir := range layerDirs {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(files) == 0 {
			out[dir] = -1
			continue
		}
		n := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				n = -1
				break
			}
			n += strings.Count(string(b), "\n")
		}
		out[dir] = n
		if n > 0 {
			total += n
		}
	}
	out["total"] = total
	return out
}
