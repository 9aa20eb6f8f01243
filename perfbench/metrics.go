package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports all of them: each one fits a model with
// CompleteDistributed and serves it through a distenc-serve daemon.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"iter_ms", "ms"},
	{"test_rmse", "rmse"},
	{"peak_rss_mb", "MB"},
	{"predict_qps", "batches/s"},
	{"predict_p50_ms", "ms"},
	{"predict_p90_ms", "ms"},
}

// layers names the modules whose self time the traced run reports, in the
// order the per-layer table lists them.
var layers = []string{"bench", "part", "core", "graph", "rdd", "transport", "serve"}

// perLayer are the traced run's metrics: timed calls into each module's
// public functions, counters the program already exposes, each layer's
// self time from the span tree, and the tracing overhead.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"part.greedy_ms", "ms"},
		{"part.load_imbalance", "ratio"},
		{"core.layout_ms", "ms"},
		{"core.mttkrp_map_ms", "ms"},
		{"core.mttkrp_reduce_ms", "ms"},
		{"core.gram_ms", "ms"},
		{"core.driver_ms", "ms"},
		{"core.iter_alloc_mb", "MB"},
		{"core.iter_allocs", "count"},
		{"core.serial_iter_ms", "ms"},
		{"core.dist_speedup", "ratio"},
		{"graph.spectral_ms", "ms"},
		{"rdd.map_critical_ms", "ms"},
		{"rdd.map_skew", "ratio"},
		{"rdd.task_queue_ms", "ms"},
		{"rdd.shuffle_mb_per_iter", "MB"},
		{"rdd.tasks_per_iter", "count"},
		{"rdd.task_retries", "count"},
		{"rdd.peak_machine_mb", "MB"},
		{"transport.worker_start_ms", "ms"},
		{"transport.put_calls_per_iter", "count"},
		{"transport.fetch_calls_per_iter", "count"},
		{"transport.put_mb_per_iter", "MB"},
		{"transport.fetch_mb_per_iter", "MB"},
		{"transport.put_ms_per_iter", "ms"},
		{"transport.fetch_ms_per_iter", "ms"},
		{"transport.put_us_p99", "us"},
		{"transport.fetch_us_p99", "us"},
		{"transport.errors", "count"},
		{"serve.predict_batch_us", "us"},
		{"serve.rtt_us", "us"},
		{"serve.wire_us", "us"},
		{"serve.cache_hit_rate", "ratio"},
		{"serve.load_model_ms", "ms"},
		{"serve.swap_ms", "ms"},
		{"serve.swap_p99_ms", "ms"},
		{"serve.p99_ms", "ms"},
		{"serve.gen_lag_ms", "ms"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ms", "ms"})
	}
	return append(defs,
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.calm_fallbacks", "count"})
}()

// ops counts the run's operations — iterations, solves, predict batches,
// swaps and output checks — and how many of them failed.
type ops struct {
	attempted, failed atomic.Int64
}

func (o *ops) ok(n int64) { o.attempted.Add(n) }

// fail records one failed operation and reports why on standard error.
func (o *ops) fail(what string, err error) {
	o.attempted.Add(1)
	o.failed.Add(1)
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
}

// check records one output check.
func (o *ops) check(what string, err error) {
	if err != nil {
		o.fail("check "+what, err)
		return
	}
	o.ok(1)
}

type host struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// hostInfo describes the machine and the code under test, and refuses
// race-instrumented binaries: the race detector multiplies run time several
// fold, so numbers taken under it say nothing about the program.
func hostInfo(serveBin string) (host, error) {
	if raceEnabled {
		return host{}, fmt.Errorf("benchmark binary is race-instrumented; rebuild without -race")
	}
	bi, err := buildinfo.ReadFile(serveBin)
	if err != nil {
		return host{}, fmt.Errorf("reading build info of %s: %w", serveBin, err)
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return host{}, fmt.Errorf("%s is race-instrumented; rebuild without -race", serveBin)
		}
	}
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	} else if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.SourceSHA256 = sourceHash()
	return h, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests the Go sources and go.mod files under the working
// directory (the checkout root), which identifies the code under test when
// the checkout is not a git repository.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks returns the host's steal and total CPU ticks from /proc/stat.
// Steal is time the hypervisor gave this VM's CPUs to other guests; a run
// that saw much of it measured the neighbours as well as the program.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS restarts the VmHWM high-water mark of process pid ("self"
// for this one) from its current resident set, so a peak can be taken over
// one solve or one swap interval.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// vmHWM returns the peak resident set size of process pid ("self" for this
// one) in MB, from the VmHWM line of /proc/<pid>/status.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
