package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"distenc"
	"distenc/internal/core"
	"distenc/internal/graph"
	"distenc/internal/part"
	"distenc/internal/rdd"
)

// solveRun is one CompleteDistributed call and what the benchmark observed
// around it.
type solveRun struct {
	traced      bool
	wall        time.Duration // the CompleteDistributed call
	setup       time.Duration // worker and cluster start plus the pre-loop part of the call
	workerStart time.Duration
	iterWalls   []time.Duration
	peakRSS     float64 // MB, the process's VmHWM over the solve
	res         *distenc.Result
	ckpt        string

	// Traced solves only.
	stages      []rdd.StageRecord
	tasks       []rdd.TaskRecord
	retries     int64
	peakMachine int64
	allocBytes  []float64 // per-iteration MemStats deltas from iteration 2 on
	allocs      []float64
	calls       []transportCall // transport calls made during the iteration loop
	tpErrors    int64
}

// distOptions are the solver options a workload fixes; everything else is
// the program's default. The convergence stop is disabled so every solve
// runs the same iteration count.
func distOptions(w workload, initSeed uint64) distenc.DistOptions {
	return distenc.DistOptions{Options: distenc.Options{
		Rank:    w.rank,
		MaxIter: w.iters,
		Tol:     -1,
		TruncK:  w.truncK,
		Seed:    initSeed,
	}}
}

// solveOnce starts the workload's workers and cluster, fits the model, and,
// when ckptDir is set, writes its final checkpoint there for serving; the
// write is not timed as part of the solve. inProcess runs a TCP
// workload's problem on the in-process backend instead (the reference run
// its factors are checked against).
func solveOnce(w workload, p problem, initSeed uint64, ckptDir string, tr *tracer, inProcess bool) (*solveRun, error) {
	r := &solveRun{traced: tr != nil}
	t0 := time.Now()
	var tp distenc.Transport
	var counter *countingTransport
	if w.tcp && !inProcess {
		client, err := distenc.StartTCPWorkers(w.machines, distenc.TransportOptions{})
		if err != nil {
			return nil, fmt.Errorf("starting workers: %w", err)
		}
		defer client.Close()
		r.workerStart = time.Since(t0)
		tp = client
		if r.traced {
			counter = &countingTransport{inner: client}
			tp = counter
		}
	}
	tCluster := time.Now()
	c, err := distenc.NewCluster(distenc.ClusterConfig{Machines: w.machines, Transport: tp, TaskTrace: r.traced})
	if err != nil {
		return nil, fmt.Errorf("starting cluster: %w", err)
	}
	defer c.Close()
	ready := time.Now()

	cbTimes := make([]time.Time, 0, w.iters)
	points := make([]distenc.ConvergencePoint, 0, w.iters)
	r.allocBytes = make([]float64, 0, w.iters)
	r.allocs = make([]float64, 0, w.iters)
	var memPrev, memNow runtime.MemStats
	opt := distOptions(w, initSeed)
	if ckptDir != "" {
		opt.CheckpointEvery = w.iters
		opt.CheckpointDir = ckptDir
	}
	opt.OnIteration = func(pt distenc.ConvergencePoint) {
		cbTimes = append(cbTimes, time.Now())
		points = append(points, pt)
		if r.traced {
			runtime.ReadMemStats(&memNow)
			if len(points) >= 2 {
				r.allocBytes = append(r.allocBytes, float64(memNow.TotalAlloc-memPrev.TotalAlloc))
				r.allocs = append(r.allocs, float64(memNow.Mallocs-memPrev.Mallocs))
			}
			memPrev = memNow
		}
	}
	callStart := time.Now()
	res, err := distenc.CompleteDistributed(c, p.train, p.sims, opt)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if len(points) != w.iters || res.Iters != w.iters {
		return nil, fmt.Errorf("ran %d iterations (%d callbacks), want %d", res.Iters, len(points), w.iters)
	}
	r.res = res
	if ckptDir != "" {
		r.ckpt = core.CheckpointPath(ckptDir)
	}
	// The checkpoint the solver writes in its last iteration is output for
	// serving, not part of the time to a fitted model: its driver span comes
	// off the call and off the iteration that wrote it.
	ckpt := map[string]time.Duration{}
	var ckptTotal time.Duration
	for _, d := range c.DriverSpans() {
		if d.Name == "checkpoint" {
			ckpt[d.Tag] += d.Dur
			ckptTotal += d.Dur
		}
	}
	r.wall = end.Sub(callStart) - ckptTotal
	last := points[len(points)-1].Elapsed
	r.setup = ready.Sub(t0) + end.Sub(callStart) - last
	prev := time.Duration(0)
	for _, pt := range points {
		r.iterWalls = append(r.iterWalls, pt.Elapsed-prev-ckpt[fmt.Sprintf("iter=%d", pt.Iter)])
		prev = pt.Elapsed
	}
	if !r.traced {
		return r, nil
	}

	loopStart := cbTimes[len(cbTimes)-1].Add(-last)
	r.stages = c.StageLog()
	r.tasks = c.Trace()
	r.retries = c.Metrics().Snapshot().TaskRetries
	r.peakMachine = c.MaxPeakMemory()
	if counter != nil {
		r.calls = counter.callsSince(loopStart)
		r.tpErrors = counter.errors.Load()
	}

	// Span tree: solve → {worker start, cluster start, CompleteDistributed
	// → iterations → engine stages and driver spans → transport calls}.
	id := tr.newTrace()
	root := tr.add(id, 0, "bench.solve", t0, end)
	if counter != nil {
		tr.add(id, root, "transport.StartTCPWorkers", t0, t0.Add(r.workerStart))
	}
	tr.add(id, root, "rdd.NewCluster", tCluster, ready)
	call := tr.add(id, root, "core.CompleteDistributed", callStart, end)
	var iterSpans []span
	from := loopStart
	for _, at := range cbTimes {
		sid := tr.add(id, call, "core.iteration", from, at)
		iterSpans = append(iterSpans, span{id: sid, start: from, end: at})
		from = at
	}
	var stageSpans []span
	for _, s := range r.stages {
		a := tCluster.Add(s.Start)
		b := a.Add(s.Wall)
		parent := innermost(iterSpans, a, b, call)
		sid := tr.add(id, parent, "rdd."+s.Name, a, b)
		stageSpans = append(stageSpans, span{id: sid, start: a, end: b})
	}
	for _, d := range c.DriverSpans() {
		a := tCluster.Add(d.Start)
		tr.add(id, innermost(iterSpans, a, a.Add(d.Dur), call), "core."+d.Name, a, a.Add(d.Dur))
	}
	if counter != nil {
		for _, cl := range counter.callsSince(callStart) {
			name := "transport.fetch"
			if cl.put {
				name = "transport.put"
			}
			b := cl.start.Add(cl.dur)
			parent := innermost(stageSpans, cl.start, b, innermost(iterSpans, cl.start, b, call))
			tr.add(id, parent, name, cl.start, b)
		}
	}
	return r, nil
}

// fitObs is the fit phase of a run.
type fitObs struct {
	runs     []*solveRun // every solve, traced and untraced
	ckpts    []string    // checkpoints to serve: one per generation
	models   []*distenc.Kruskal
	testRMSE float64
}

// fitPhase runs the workload's solves. A serving workload fits one model per
// generation; a fitting workload repeats the same fit until its share of the
// run is spent (at least minSolves times). In the traced run, traced and
// untraced solves alternate so the tracing overhead is measured in-run.
func fitPhase(w workload, p problem, cfg config, tr *tracer, o *ops, dir string, deadline time.Time) (*fitObs, error) {
	f := &fitObs{}
	n := 0
	for {
		if w.serving {
			if n == generations {
				break
			}
		} else if n >= minSolves && time.Now().After(deadline) {
			break
		}
		initSeed := uint64(modelSeed)
		served := w.serving || n == 0
		if w.serving {
			initSeed += uint64(n)
		}
		var t *tracer
		if cfg.trace && n%2 == 0 {
			t = tr
		}
		ckptDir := ""
		if served {
			ckptDir = fmt.Sprintf("%s/gen%d", dir, n)
		}
		// Every solve starts from the same heap: the previous solve's
		// garbage collected and returned, so its peak RSS is its own.
		debug.FreeOSMemory()
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		steal0, total0 := cpuTicks()
		r, err := solveOnce(w, p, initSeed, ckptDir, t, false)
		if err != nil {
			o.fail("solve", err)
			return nil, err
		}
		if r.peakRSS, err = vmHWM("self"); err != nil {
			return nil, err
		}
		steal1, total1 := cpuTicks()
		fmt.Fprintf(os.Stderr, "perfbench: solve %d: %.3f s, set-up %.3f s, peak RSS %.0f MB, CPU steal %.1f%%\n",
			n, r.wall.Seconds(), r.setup.Seconds(), r.peakRSS, 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
		o.ok(int64(w.iters) + 1) // the iterations and the solve
		f.runs = append(f.runs, r)
		if served {
			f.ckpts = append(f.ckpts, r.ckpt)
			f.models = append(f.models, r.res.Model)
		} else {
			o.check("repeat fit is bit-identical", sameFactors(r.res.Model, f.models[0]))
		}
		n++
	}
	f.testRMSE = distenc.RMSE(p.test, f.models[0])
	o.check("test_rmse finite", finite("test_rmse", f.testRMSE))
	return f, nil
}

// fitEndToEnd fills the fit-side end-to-end metrics from the untraced
// solves (all solves when none ran untraced). Set-up time and peak memory
// are the fit's only on workloads whose point is fitting.
func fitEndToEnd(f *fitObs, m map[string]float64, fitting bool) {
	var setups, walls, iters, peaks []float64
	for _, r := range untracedOrAll(f.runs) {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		peaks = append(peaks, r.peakRSS)
		for _, d := range r.iterWalls {
			iters = append(iters, ms(d))
		}
	}
	if fitting {
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = median(peaks)
	}
	m["solve_s"] = median(walls)
	m["iter_ms"] = median(iters)
	m["test_rmse"] = f.testRMSE
}

func untracedOrAll(runs []*solveRun) []*solveRun {
	var out []*solveRun
	for _, r := range runs {
		if !r.traced {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return runs
	}
	return out
}

// fitPerLayer fills the fit-side per-layer metrics from the traced solves,
// then times the layers the solver calls before its loop (partitioning,
// layout, spectra) and the serial baseline directly.
func fitPerLayer(w workload, p problem, f *fitObs, tr *tracer, o *ops, m map[string]float64) error {
	var traced, plain []*solveRun
	for _, r := range f.runs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(traced) == 0 {
		return errors.New("no traced solve ran")
	}
	var mapMs, redMs, gramMs, drvMs, allocB, allocN, crit, skew, queue []float64
	var iters, tasks, shuffle, puts, fetches, putB, fetchB, putT, fetchT float64
	var putUs, fetchUs []float64
	var retries, tpErrors, peak int64
	var workerStart []float64
	for _, r := range traced {
		for _, ph := range r.res.Phases {
			mapMs = append(mapMs, ms(ph.MTTKRPMap))
			redMs = append(redMs, ms(ph.MTTKRPReduce))
			gramMs = append(gramMs, ms(ph.Gram))
			drvMs = append(drvMs, ms(ph.Driver))
		}
		allocB = append(allocB, r.allocBytes...)
		allocN = append(allocN, r.allocs...)
		iterQueue := map[string]time.Duration{}
		for _, t := range r.tasks {
			if strings.HasPrefix(t.Tag, "iter=") {
				iterQueue[t.Tag] += t.Queue
			}
		}
		for _, q := range iterQueue {
			queue = append(queue, ms(q))
		}
		for _, s := range r.stages {
			if !strings.HasPrefix(s.Tag, "iter=") {
				continue
			}
			tasks += float64(s.Tasks)
			shuffle += float64(s.BytesShuffled)
			if strings.Contains(s.Name, "mttkrp-map") {
				crit = append(crit, ms(s.Critical))
				skew = append(skew, s.Skew())
			}
		}
		iters += float64(len(r.iterWalls))
		retries += r.retries
		peak = max(peak, r.peakMachine)
		tpErrors += r.tpErrors
		if w.tcp {
			workerStart = append(workerStart, ms(r.workerStart))
		}
		for _, c := range r.calls {
			if c.put {
				puts++
				putB += float64(c.bytes)
				putT += ms(c.dur)
				putUs = append(putUs, us(c.dur))
			} else {
				fetches++
				fetchB += float64(c.bytes)
				fetchT += ms(c.dur)
				fetchUs = append(fetchUs, us(c.dur))
			}
		}
	}
	m["core.mttkrp_map_ms"] = median(mapMs)
	m["core.mttkrp_reduce_ms"] = median(redMs)
	m["core.gram_ms"] = median(gramMs)
	m["core.driver_ms"] = median(drvMs)
	m["core.iter_alloc_mb"] = mb(median(allocB))
	m["core.iter_allocs"] = median(allocN)
	m["rdd.map_critical_ms"] = median(crit)
	m["rdd.map_skew"] = median(skew)
	m["rdd.task_queue_ms"] = median(queue)
	m["rdd.shuffle_mb_per_iter"] = mb(shuffle / iters)
	m["rdd.tasks_per_iter"] = tasks / iters
	m["rdd.task_retries"] = float64(retries)
	m["rdd.peak_machine_mb"] = mb(float64(peak))
	m["transport.worker_start_ms"] = zeroIfEmpty(workerStart)
	m["transport.put_calls_per_iter"] = puts / iters
	m["transport.fetch_calls_per_iter"] = fetches / iters
	m["transport.put_mb_per_iter"] = mb(putB / iters)
	m["transport.fetch_mb_per_iter"] = mb(fetchB / iters)
	m["transport.put_ms_per_iter"] = putT / iters
	m["transport.fetch_ms_per_iter"] = fetchT / iters
	m["transport.put_us_p99"] = zeroIfEmptyQ(putUs, 0.99)
	m["transport.fetch_us_p99"] = zeroIfEmptyQ(fetchUs, 0.99)
	m["transport.errors"] = float64(tpErrors)
	if len(plain) > 0 {
		var tw, pw []float64
		for _, r := range traced {
			tw = append(tw, r.wall.Seconds())
		}
		for _, r := range plain {
			pw = append(pw, r.wall.Seconds())
		}
		m["bench.trace_overhead_pct"] = 100 * (median(tw)/median(pw) - 1)
	} else {
		m["bench.trace_overhead_pct"] = 0
	}

	// Layers the solver runs before its first iteration, timed one call at
	// a time from here.
	id := tr.newTrace()
	layersStart := time.Now()
	var greedy []float64
	var bounds part.Boundaries
	counts := make([][]int64, len(p.train.Dims))
	for n := range counts {
		counts[n] = p.train.ModeCounts(n)
	}
	for rep := 0; rep < 5; rep++ {
		var total time.Duration
		for n, c := range counts {
			a := time.Now()
			b := part.Greedy(c, w.machines)
			d := time.Since(a)
			total += d
			tr.add(id, 0, "part.Greedy", a, a.Add(d))
			if n == 0 {
				bounds = b
			}
		}
		greedy = append(greedy, ms(total))
	}
	m["part.greedy_ms"] = median(greedy)
	// Blocks split on mode 0, so its load is the block nnz balance.
	m["part.load_imbalance"] = part.Stats(counts[0], bounds).Imbalance

	var layout []float64
	for rep := 0; rep < 3; rep++ {
		a := time.Now()
		core.NewLayout(p.train, core.DistOptions{Options: core.Options{Rank: w.rank}, Partitions: w.machines})
		b := time.Now()
		tr.add(id, 0, "core.NewLayout", a, b)
		layout = append(layout, ms(b.Sub(a)))
	}
	m["core.layout_ms"] = median(layout)

	spectral := 0.0
	if p.sims != nil {
		rng := rand.New(rand.NewPCG(modelSeed, 0x5bec7))
		for _, s := range p.sims {
			if s == nil || s.NumEdges() == 0 {
				continue
			}
			a := time.Now()
			l := graph.NewLaplacian(s)
			var err error
			if w.truncK > 0 && w.truncK < s.N {
				_, err = graph.TruncatedSpectral(l, w.truncK, rng)
			} else {
				_, err = graph.ExactSpectral(l)
			}
			b := time.Now()
			if err != nil {
				o.fail("spectral", err)
				return err
			}
			tr.add(id, 0, "graph.spectral", a, b)
			spectral += ms(b.Sub(a))
		}
	}
	m["graph.spectral_ms"] = spectral
	tr.add(id, 0, "bench.layers", layersStart, time.Now())

	// The single-process baseline: façade Complete on the same problem.
	serialOpt := distOptions(w, modelSeed).Options
	var serialPoints []distenc.ConvergencePoint
	serialOpt.OnIteration = func(pt distenc.ConvergencePoint) { serialPoints = append(serialPoints, pt) }
	a := time.Now()
	serial, err := distenc.Complete(p.train, p.sims, serialOpt)
	b := time.Now()
	if err != nil {
		o.fail("serial solve", err)
		return err
	}
	o.ok(int64(w.iters) + 1)
	sid := tr.newTrace()
	tr.add(sid, 0, "core.Complete", a, b)
	var serialIters []float64
	prev := time.Duration(0)
	for _, pt := range serialPoints {
		serialIters = append(serialIters, ms(pt.Elapsed-prev))
		prev = pt.Elapsed
	}
	m["core.serial_iter_ms"] = median(serialIters)
	var distIters []float64
	for _, r := range untracedOrAll(f.runs) {
		for _, d := range r.iterWalls {
			distIters = append(distIters, ms(d))
		}
	}
	m["core.dist_speedup"] = m["core.serial_iter_ms"] / median(distIters)
	if w.name == "fit-fibers" {
		o.check("distributed trace lags serial by one iteration", laggedTrace(f.runs[0].res.Trace, serial.Trace))
		o.check("distributed factors match serial", closeFactors(f.runs[0].res.Model, serial.Model, 1e-9))
	}
	return nil
}

func zeroIfEmpty(xs []float64) float64 { return zeroIfEmptyQ(xs, 0.5) }

func zeroIfEmptyQ(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// laggedTrace checks that the distributed train RMSE at iteration i equals
// the serial RMSE at iteration i-1: the distributed stage measures the
// residual before the update, the serial solver after it.
func laggedTrace(dist, serial distenc.Trace) error {
	if len(dist) != len(serial) || len(dist) < 2 {
		return fmt.Errorf("trace lengths %d (distributed) and %d (serial)", len(dist), len(serial))
	}
	for i := 1; i < len(dist); i++ {
		a, b := dist[i].TrainRMSE, serial[i-1].TrainRMSE
		if math.Abs(a-b) > 1e-9*math.Abs(b) {
			return fmt.Errorf("iteration %d: distributed RMSE %.17g, serial iteration %d %.17g", i, a, i-1, b)
		}
	}
	return nil
}

// closeFactors checks ‖A−B‖_F ≤ tol·‖B‖_F per factor matrix.
func closeFactors(a, b *distenc.Kruskal, tol float64) error {
	if len(a.Factors) != len(b.Factors) {
		return fmt.Errorf("orders %d and %d", len(a.Factors), len(b.Factors))
	}
	for n := range a.Factors {
		x, y := a.Factors[n].Data(), b.Factors[n].Data()
		if len(x) != len(y) {
			return fmt.Errorf("mode %d: %d and %d entries", n, len(x), len(y))
		}
		var diff, norm float64
		for i := range x {
			diff += (x[i] - y[i]) * (x[i] - y[i])
			norm += y[i] * y[i]
		}
		if math.Sqrt(diff) > tol*math.Sqrt(norm) {
			return fmt.Errorf("mode %d: relative difference %.3g exceeds %g", n, math.Sqrt(diff/norm), tol)
		}
	}
	return nil
}

// sameFactors checks that two models are math.Float64bits-identical.
func sameFactors(a, b *distenc.Kruskal) error {
	if len(a.Factors) != len(b.Factors) {
		return fmt.Errorf("orders %d and %d", len(a.Factors), len(b.Factors))
	}
	for n := range a.Factors {
		x, y := a.Factors[n].Data(), b.Factors[n].Data()
		if len(x) != len(y) {
			return fmt.Errorf("mode %d: %d and %d entries", n, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("mode %d entry %d: %v and %v differ in bits", n, i, x[i], y[i])
			}
		}
	}
	return nil
}

func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s is %v", name, v)
	}
	return nil
}
