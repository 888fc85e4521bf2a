package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"cloudqc/internal/cloud"
	"cloudqc/internal/core"
	"cloudqc/internal/fed"
	"cloudqc/internal/qasm"
	"cloudqc/internal/sched"
	"cloudqc/internal/service"
	"cloudqc/internal/wal"
)

const (
	daemonShards = 4
	// daemonCadence is the virtual time between submissions, in CX
	// units. Affinity routing spreads the templates over the shards, so
	// each shard sees about a quarter of the stream.
	daemonCadence = 1500
	// daemonPrefix is how many jobs the untimed prefix daemon writes to
	// the log that every set-up replays.
	daemonPrefix = 4000
	// daemonChecked is how many measured jobs sim_jct_mean_cx averages;
	// the measured phase always runs daemonMargin jobs past it.
	daemonChecked = 4000
	daemonMargin  = 64
	// daemonReadBack: each POST is followed by a GET of the job submitted
	// this many POSTs earlier.
	daemonReadBack = 4
	// daemonSetupReps is how often a run restarts the daemon from the log.
	daemonSetupReps = 3
)

// vclock is the daemon's injected wall clock. The benchmark moves it to
// each job's scheduled arrival before submitting it, so virtual time
// (one CX per clock second at TimeScale 1) follows the submission
// schedule and never the real wall clock.
type vclock struct{ cx atomic.Int64 }

var clockBase = time.Unix(1_000_000_000, 0)

func (c *vclock) now() time.Time { return clockBase.Add(time.Duration(c.cx.Load()) * time.Second) }

// daemon is one cloudqcd-equivalent: a 4-shard affinity federation
// with WFQ admission and the tenant-weighted EPR policy, behind the
// HTTP service with its write-ahead log.
type daemon struct {
	srv *service.Server
	f   *fed.Federation
	log *wal.Log
}

func newDaemon(seed int64, log *wal.Log, clk *vclock, t *tracer) (*daemon, error) {
	s := subSeed(seed, 200)
	// Every shard runs its own copy of warm-stream's cloud, as cloudqcd
	// gives every shard a copy of one cloud shape.
	clouds := make([]*cloud.Cloud, daemonShards)
	for i := range clouds {
		clouds[i] = streamCloud()
	}
	f, err := fed.New(fed.Config{
		Shard: core.Config{
			Placer: t.placer(s),
			Policy: t.policy(sched.NewTenantWeightedPolicy()),
			Mode:   core.WFQMode,
			Seed:   s,
		},
		Clouds:  clouds,
		Routing: fed.RouteAffinity,
	})
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Federation: f, TimeScale: 1, Now: clk.now, WAL: log})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, f: f, log: log}, nil
}

// doFunc performs one request and returns its status and body.
type doFunc func(method, path string, body []byte) (int, []byte, error)

// local calls a handler in-process, without sockets.
func local(h http.Handler) doFunc {
	return func(method, path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// client drives the daemon with the stream: each POST of the next
// template (inline OpenQASM) is followed by a GET of an earlier job.
type client struct {
	gen    *streamGen
	clk    *vclock
	bodies [][][]byte // [template][tenant] request body
	ids    []int
	do     doFunc
	// Per-operation outcomes: each POST's latency, the summed latency of
	// every request, and the operations attempted and failed (non-2xx).
	submit    []float64
	requestS  float64
	attempted int
	failed    int
}

func newClient(seed int64, clk *vclock) (*client, error) {
	c := &client{gen: newStreamGen(seed), clk: clk}
	for _, circ := range streamCircuits() {
		src := qasm.Write(circ)
		var row [][]byte
		for tenant, w := range tenantWeights {
			b, err := json.Marshal(service.SubmitRequest{Tenant: tenant, Priority: w, QASM: src})
			if err != nil {
				return nil, err
			}
			row = append(row, b)
		}
		c.bodies = append(c.bodies, row)
	}
	return c, nil
}

func (c *client) timed(method, path string, body []byte) (int, []byte, float64, error) {
	start := time.Now()
	code, out, err := c.do(method, path, body)
	d := time.Since(start).Seconds()
	c.requestS += d
	c.attempted++
	if err != nil || code/100 != 2 {
		c.failed++
	}
	return code, out, d, err
}

// step submits the next job of the stream and reads back an earlier one.
func (c *client) step() error {
	k, tpl, tenant := c.gen.next()
	c.clk.cx.Store(int64(k * daemonCadence))
	code, body, d, err := c.timed("POST", "/v1/jobs", c.bodies[tpl][tenant])
	if err != nil {
		return err
	}
	c.submit = append(c.submit, d)
	if code == http.StatusAccepted {
		var resp service.JobResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("daemon-wal: decode 202 body: %w", err)
		}
		c.ids = append(c.ids, resp.ID)
	}
	if n := len(c.ids); n > daemonReadBack {
		if _, _, _, err := c.timed("GET", "/v1/jobs/"+strconv.Itoa(c.ids[n-1-daemonReadBack]), nil); err != nil {
			return err
		}
	}
	return nil
}

// writePrefix runs the untimed prefix daemon, which writes
// daemonPrefix jobs to a fresh log at path, and returns its final
// GET /v1/stats body and the job ids it assigned.
func writePrefix(o options, path string, clk *vclock) ([]byte, []int, error) {
	log, _, err := wal.Open(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := newDaemon(o.seed, log, clk, nil)
	if err != nil {
		return nil, nil, err
	}
	c, err := newClient(o.seed, clk)
	if err != nil {
		return nil, nil, err
	}
	c.do = local(d.srv)
	for k := 0; k < daemonPrefix; k++ {
		if err := c.step(); err != nil {
			return nil, nil, err
		}
	}
	if c.failed > 0 {
		return nil, nil, fmt.Errorf("daemon-wal: %d of %d prefix requests failed", c.failed, c.attempted)
	}
	code, stats, _ := c.do("GET", "/v1/stats", nil)
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("daemon-wal: prefix GET /v1/stats: status %d", code)
	}
	return stats, c.ids, log.Close()
}

// restart is the timed set-up: open the log and replay it into a fresh
// daemon. The recovered daemon must report the same /v1/stats body —
// virtual clock, settled count, aggregates, plan-cache and routing
// counters — as the daemon that wrote the log.
func restart(o options, path string, clk *vclock, t *tracer, want []byte, rep *report) (*daemon, float64, error) {
	settle()
	start := time.Now()
	var (
		log  *wal.Log
		recs []wal.Record
	)
	err := t.span(spanWALOpen, func() (err error) {
		log, recs, err = wal.Open(path)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	d, err := newDaemon(o.seed, log, clk, t)
	if err != nil {
		return nil, 0, err
	}
	var jobs int
	if err := t.span(spanReplay, func() (err error) {
		jobs, err = d.srv.Replay(recs)
		return err
	}); err != nil {
		return nil, 0, err
	}
	took := time.Since(start).Seconds()
	code, stats, _ := local(d.srv)("GET", "/v1/stats", nil)
	rep.check(jobs == daemonPrefix && code == http.StatusOK && bytes.Equal(stats, want),
		"daemon-wal: recovered daemon (%d jobs, status %d) does not report the prefix daemon's /v1/stats", jobs, code)
	return d, took, nil
}

// serveHTTP serves h on a loopback port and returns a client bound to
// one keep-alive connection, and a stop function that closes both and
// waits for the server to exit.
func serveHTTP(h http.Handler) (doFunc, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()
	do := func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, out, err
	}
	stop := func() error {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return do, stop, nil
}

// daemonMeasure drives d over loopback HTTP, continuing the stream after
// the prefix for daemonChecked+daemonMargin jobs and, when timed, until
// the run length is reached; then it drains the daemon, checks that
// every measured job completed, and closes the log. It returns the
// client, the measured jobs' results, the phase's meter, and the peak
// RSS when the fixed part of the phase ended.
func daemonMeasure(o options, d *daemon, h http.Handler, clk *vclock, prefixIDs []int, rep *report, timed bool) (c *client, results []*core.JobResult, m *meter, rss float64, err error) {
	c, err = newClient(o.seed, clk)
	if err != nil {
		return
	}
	for k := 0; k < daemonPrefix; k++ {
		c.gen.next()
	}
	c.ids = append(c.ids, prefixIDs...)
	do, stop, err := serveHTTP(h)
	if err != nil {
		return
	}
	c.do = do
	settle()
	m = newMeter(o.seconds)
	n := 0
	for ; n < daemonChecked+daemonMargin || (timed && m.elapsed() < o.seconds); n++ {
		if err = c.step(); err != nil {
			break
		}
		m.add(1)
		if n+1 == daemonChecked+daemonMargin {
			rss = peakRSSMB()
		}
	}
	m.stop()
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return
	}
	if results, err = d.srv.Drain(); err != nil {
		return
	}
	results = results[daemonPrefix:]
	checkSettled(rep, "daemon-wal", results, n)
	err = d.log.Close()
	return
}

func runDaemonWAL(o options) (*report, error) {
	rep := newReport()
	store := &walStore{}
	defer store.close()
	clk := &vclock{}
	prefixLog, err := store.path("prefix")
	if err != nil {
		return nil, err
	}
	want, prefixIDs, err := writePrefix(o, prefixLog, clk)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return rep, daemonTraced(o, store, prefixLog, clk, want, prefixIDs, rep)
	}

	var (
		setups []float64
		d      *daemon
	)
	for r := 0; r < daemonSetupReps; r++ {
		if d != nil {
			if err := d.log.Close(); err != nil {
				return nil, err
			}
		}
		var took float64
		if d, took, err = restart(o, prefixLog, clk, nil, want, rep); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}

	c, measured, m, rss, err := daemonMeasure(o, d, d.srv, clk, prefixIDs, rep, true)
	if err != nil {
		return nil, err
	}
	completed := len(measured)
	for _, r := range measured {
		if r.Failed {
			completed--
		}
	}
	ops := c.attempted
	rep.attempted, rep.failed = ops, c.failed+len(measured)-completed
	rep.set("setup_s", median(setups), "s")
	m.report(rep)
	rep.set("ok_ratio", float64(ops-rep.failed)/float64(ops), "ratio")
	rep.set("sim_jct_mean_cx", meanJCT(measured[:daemonChecked]), "CX")
	rep.set("peak_rss_mb", rss, "MB")
	setLatency(rep, c.submit, "POST /v1/jobs sent to 202 read, one keep-alive connection")
	rep.notes["plan_cache"] = d.f.PlanCacheStats()
	rep.notes["router"] = d.f.RouterStats()
	rep.notes["wal"] = d.log.Stats()
	return rep, nil
}

// copyFile copies the prefix log so each run of the traced comparison
// appends to its own copy.
func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// daemonTraced restarts from the prefix log twice, untraced and then
// traced, and runs exactly daemonChecked+daemonMargin measured jobs on
// each; the two runs must agree exactly.
func daemonTraced(o options, store *walStore, prefixLog string, clk *vclock, want []byte, prefixIDs []int, rep *report) error {
	type outcome struct {
		c      counters
		router fed.RouterStats
		rate   float64
		client *client
		d      *daemon
		setup  phase
		meas   phase
		delta  counters
		rdelta fed.RouterStats
	}
	runOnce := func(name string, t *tracer) (outcome, error) {
		var out outcome
		path, err := store.path(name)
		if err != nil {
			return out, err
		}
		if err := copyFile(prefixLog, path); err != nil {
			return out, err
		}
		clk.cx.Store(int64((daemonPrefix - 1) * daemonCadence))
		d, _, err := restart(o, path, clk, t, want, rep)
		if err != nil {
			return out, err
		}
		var h http.Handler = d.srv
		if t != nil {
			out.setup = t.mark()
			h = tracedHandler{inner: d.srv, t: t}
		}
		before := counters{Run: d.f.RunStats(), Plan: d.f.PlanCacheStats()}
		router0 := d.f.RouterStats()
		c, measured, m, _, err := daemonMeasure(o, d, h, clk, prefixIDs, rep, false)
		if err != nil {
			return out, err
		}
		if t != nil {
			out.meas = t.since(out.setup)
		}
		checked := measured[:daemonChecked]
		out.c = counters{Digest: resultsDigest(checked), MeanJCT: meanJCT(checked), Run: d.f.RunStats(), Plan: d.f.PlanCacheStats()}
		out.delta = counterDelta(out.c, before)
		out.router = d.f.RouterStats()
		out.rdelta = fed.RouterStats{
			AffinityHits: out.router.AffinityHits - router0.AffinityHits,
			Spills:       out.router.Spills - router0.Spills,
			Cold:         out.router.Cold - router0.Cold,
		}
		out.rate = float64(len(measured)) / m.elapsed()
		out.client, out.d = c, d
		return out, nil
	}
	base, err := runOnce("untraced", nil)
	if err != nil {
		return err
	}
	t := newTracer()
	tr, err := runOnce("traced", t)
	if err != nil {
		return err
	}
	rep.check(tr.c == base.c && tr.router == base.router,
		"daemon-wal: traced run (%v, %+v) differs from untraced run (%v, %+v)", tr.c, tr.router, base.c, base.router)
	rep.attempted = base.client.attempted + tr.client.attempted
	rep.failed = base.client.failed + tr.client.failed
	setLayerMetrics(rep, tr.setup, tr.meas, tr.delta, base.rate, tr.rate)
	rep.set("fed.affinity_hits", float64(tr.rdelta.AffinityHits), "count")
	rep.set("fed.spills", float64(tr.rdelta.Spills), "count")
	rep.set("fed.cold", float64(tr.rdelta.Cold), "count")
	rep.set("service.transport_s", tr.client.requestS-tr.meas.spans[spanService].busy.Seconds(), "s")
	ws := tr.d.log.Stats()
	rep.set("wal.records", float64(ws.Records), "count")
	rep.set("wal.bytes", float64(ws.Bytes), "B")
	rep.set("wal.syncs", float64(ws.Syncs), "count")
	rep.set("wal.sync_s", ws.SyncSeconds, "s")
	rep.notes["counters"] = tr.c.String()
	return nil
}
