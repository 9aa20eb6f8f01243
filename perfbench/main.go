// Command perfbench is the repository benchmark. One invocation runs one
// named workload through the public façade (distenc.CompleteDistributed,
// distenc.Complete) and the distenc-serve daemon's protocols, checks the
// outputs, and prints one JSON result as its last line of standard output:
//
//	perfbench -workload fit-fibers -seed 1 -seconds 15 -trace 0 \
//	    -serve-bin .bench_build/bin/distenc-serve -workdir .bench_build/work
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a traced run (see metrics.go). The
// workload seed generates every input; the program under test only ever
// sees generated tensors and cells. perfbench/run.sh builds both binaries
// from source and is the entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"distenc"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
}

func main() {
	// Transport workers are re-execs of this binary (StartTCPWorkers);
	// the hook turns such a child into a worker and never returns.
	distenc.WorkerHook()

	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "distenc-serve binary built from this checkout")
	flag.StringVar(&cfg.workDir, "workdir", "", "scratch directory for checkpoints (removed on exit)")
	flag.Parse()
	cfg.trace = traceFlag != 0

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", merr)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run validates the environment, runs the workload and assembles the
// result. A nil result means nothing was measured; a non-nil result with an
// error is printed and then fails the command.
func run(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	return runWith(w, cfg)
}

func runWith(w workload, cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if cfg.serveBin == "" || cfg.workDir == "" {
		return nil, errors.New("-serve-bin and -workdir are required (perfbench/run.sh sets both)")
	}
	h, err := hostInfo(cfg.serveBin)
	if err != nil {
		return nil, err
	}
	hb, _ := json.Marshal(map[string]any{"host": h, "workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace})
	fmt.Println(string(hb))

	dir := filepath.Join(cfg.workDir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	steal0, total0 := cpuTicks()
	m, o, err := runWorkload(w, cfg, dir)
	steal1, total1 := cpuTicks()
	stealPct := 100 * float64(steal1-steal0) / float64(max(1, total1-total0))
	fmt.Fprintf(os.Stderr, "perfbench: %s finished in %s; CPU steal %.1f%% of host CPU time\n",
		w.name, time.Since(start).Round(time.Millisecond), stealPct)
	// The line before the result says how much CPU other guests took and
	// how many serving phases had too few calm slots (see calm), in every
	// run, traced or not.
	sb, _ := json.Marshal(map[string]any{"steal_pct": stealPct, "calm_fallbacks": m["bench.calm_fallbacks"]})
	fmt.Println(string(sb))
	if err != nil {
		o.fail("workload", err)
	}
	res := &result{
		Correct:   o.failed.Load() == 0,
		Attempted: o.attempted.Load(),
		Failed:    o.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if err == nil {
				err = fmt.Errorf("metric %s was not measured (%v)", d.name, v)
			}
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res, err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
