// Command forkbench is forkwatch's end-to-end benchmark. It runs one of
// three workloads in-process — the paper's nine-month researcher path,
// a live disk archive past the feed's replay ring, and a replica that
// catches up and serves reads — from a seed, checks every output it can
// against a reference or a second path, and prints one JSON result as
// the last line of standard output.
//
//	forkbench --workload paper_270d --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the gated end-to-end metrics; with
// --trace 1 it runs the workload once untraced and once traced and
// carries the per-layer metrics instead, including the tracing
// overhead. README.md lists every metric and the layer → end-to-end map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Metric is one named value in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the gated metrics every workload reports with tracing
// off, in output order. README.md gives each one's meaning per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"blocks_per_s", "1/s"},
}

// perLayer lists the metrics of the traced run, in output order. A
// workload that does not exercise a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	// Workload-specific end-to-end values that belong to one workload only,
	// measured in the trace run's untraced pass.
	{"export_s", "s"},
	{"reanalyze_s", "s"},
	{"live_lag_p50_ms", "ms"},
	{"live_lag_p99_ms", "ms"},
	{"restart_s", "s"},
	{"sync_blocks_per_s", "1/s"},
	{"rpc_p50_ms", "ms"},
	{"rpc_hot_p99_ms", "ms"},
	{"rpc_cold_p50_ms", "ms"},
	{"rpc_p99_ms", "ms"},
	{"rpc_capacity_rps", "1/s"},
	{"rpc_cold_capacity_rps", "1/s"},
	// Tracing cost and per-layer self time.
	{"trace.overhead_s", "s"},
	{"self.bench_s", "s"},
	{"self.sim_s", "s"},
	{"self.analysis_s", "s"},
	{"self.export_s", "s"},
	{"self.live_s", "s"},
	{"self.feed_s", "s"},
	{"self.chain_s", "s"},
	{"self.db_s", "s"},
	{"self.p2p_s", "s"},
	{"self.rpc_s", "s"},
	{"self.serve_s", "s"},
	// sim
	{"sim.new_s", "s"},
	{"sim.day_ms_p50", "ms"},
	{"sim.day_ms_p99", "ms"},
	{"sim.parallel_efficiency", "ratio"},
	{"sim.blocks", "count"},
	// analysis and export
	{"analysis.observe_s", "s"},
	{"analysis.figures_s", "s"},
	{"analysis.replay_s", "s"},
	{"export.record_s", "s"},
	{"export.write_s", "s"},
	{"export.write_mb", "MB"},
	{"export.read_s", "s"},
	{"export.from_chain_s", "s"},
	// live and live/feed
	{"live.replay_s", "s"},
	{"live.follow_apply_s", "s"},
	{"live.plane_replay_s", "s"},
	{"feed.events", "count"},
	{"feed.gaps", "count"},
	{"feed.dropped", "count"},
	{"feed.plane_overhead_s", "s"},
	{"feed.plane_deliver_s", "s"},
	// db and chain
	{"db.open_s", "s"},
	{"db.disk_mb", "MB"},
	{"db.writes_per_block", "count"},
	{"db.syncs_per_block", "count"},
	{"db.bytes_per_block", "B"},
	{"db.batch_write_us_p99", "us"},
	{"db.get_us_p50", "us"},
	{"db.fsync_us_p50", "us"},
	{"db.fsync_us_p99", "us"},
	{"db.durable_blocks_per_s", "1/s"},
	{"chain.open_s", "s"},
	{"chain.insert_ms_p50", "ms"},
	{"chain.insert_ms_p99", "ms"},
	// p2p, rpc, serve
	{"p2p.sync_overhead_s", "s"},
	{"rpc.hot_us_p50", "us"},
	{"rpc.cold_us_p50", "us"},
	{"rpc.cold_us_p99", "us"},
	{"rpc.http_overhead_us", "us"},
	{"rpc.cache_hit_rate", "ratio"},
	{"rpc.queue_depth_max", "count"},
	{"rpc.shed", "count"},
	{"serve.build_s", "s"},
}

// workload is one benchmark scenario. pass runs it once: untraced when
// tr is nil, otherwise with spans and per-layer counts recorded into tr.
// setup runs only the set-up part (for the repeated setup_s samples).
type workload struct {
	why   string
	setup func(r *run) (time.Duration, error)
	pass  func(r *run, tr *tracer) (*passResult, error)
	// layers fills the per-layer metrics that need direct calls beyond
	// the traced pass (plain engine runs, bare imports).
	layers func(r *run, untraced, traced *passResult) error
}

var workloads = map[string]workload{
	"paper_270d":    paperWorkload,
	"archive_live":  archiveWorkload,
	"replica_reads": replicaWorkload,
}

// setup_s is the median of set-up samples taken before the workload's
// pass, while the process is still fresh. A sample is the mean of
// back-to-back set-ups lasting at least setupBatch, so a set-up of a
// millisecond is not lost in timer and scheduling noise; sampling goes
// on for at least minSetups samples and setupSpan in all, so a median
// over many samples rides out the host's CPU speed drifting.
const (
	minSetups  = 3
	setupBatch = 250 * time.Millisecond
	setupSpan  = 3 * time.Second
)

func setupSamples(r *run, w workload) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minSetups || time.Since(start) < setupSpan {
		var total time.Duration
		n := 0
		for total < setupBatch {
			d, err := w.setup(r)
			if err != nil {
				return out, err
			}
			total += d
			n++
		}
		out = append(out, total.Seconds()/float64(n))
	}
	freeMemory()
	return out, nil
}

// run is one benchmark invocation's context.
type run struct {
	seed    int64
	seconds time.Duration
	root    string // scratch directory inside the checkout, removed at exit
	seq     atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
}

// passResult is what one pass of a workload measured.
type passResult struct {
	timed  stopwatch // the workload's timed phases: wall_s and cpu_s
	blocks float64   // blocks_per_s
	// workload-specific end-to-end values (export_s, restart_s, ...) and
	// per-layer values
	values map[string]float64
	// detail carries informational values printed before the result.
	detail      map[string]any
	percentiles map[string]any
}

func newPass() *passResult {
	p := &passResult{values: map[string]float64{}, detail: map[string]any{}, percentiles: map[string]any{}}
	p.detail["percentiles"] = p.percentiles
	return p
}

// pct records the q-quantile of samples as a value, and with its sample
// count in the detail line.
func (p *passResult) pct(name string, samples []float64, q float64) {
	v := percentile(samples, q)
	p.values[name] = v
	p.percentiles[name] = map[string]any{"value": v, "q": q, "samples": len(samples)}
}

// stopwatch accumulates wall and CPU time over the phases it times.
type stopwatch struct {
	wall, cpu time.Duration
	t0        time.Time
	c0        time.Duration
}

// start begins a phase after a full collection, so garbage left by
// set-up or an earlier phase is not charged to this one.
func (s *stopwatch) start() {
	runtime.GC()
	s.t0, s.c0 = time.Now(), cpuTime()
}

// stop ends a phase and returns its wall time.
func (s *stopwatch) stop() time.Duration {
	d := time.Since(s.t0)
	s.wall += d
	s.cpu += cpuTime() - s.c0
	return d
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check counts one correctness-gated operation; a false ok counts it as
// failed and reports why on standard error.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		fmt.Fprintf(os.Stderr, "forkbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// op counts one operation that either succeeded or returned err.
func (r *run) op(err error) bool {
	return r.check(err == nil, "%v", err)
}

// dir returns a fresh directory under the run's scratch root.
func (r *run) dir(name string) string {
	d := filepath.Join(r.root, fmt.Sprintf("%s-%d", name, r.seq.Add(1)))
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatalf("creating %s: %v", d, err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "forkbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper_270d, archive_live or replica_reads")
		seed    = flag.Int64("seed", 1, "input seed (equal seeds give equal inputs)")
		seconds = flag.Int("seconds", 10, "seconds the time-bounded phases measure")
		trace   = flag.Int("trace", 0, "1 = untraced pass, traced pass and per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    filepath.Join(cwd, ".bench_out", fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(r.root)
	// Write back whatever earlier processes left dirty (another run's
	// stores or export) before measuring, so no phase here waits on it.
	syscall.Sync()

	res := Result{Metrics: map[string]Metric{}}
	detail := map[string]any{
		"workload": *name,
		"seed":     *seed,
		"why":      w.why,
		"host":     hostFacts(cwd),
	}
	if *trace == 0 {
		setups, err := setupSamples(r, w)
		if !r.op(err) {
			finish(res, r, detail)
			return
		}
		p, err := w.pass(r, nil)
		if !r.op(err) {
			finish(res, r, detail)
			return
		}
		vals := map[string]float64{
			"setup_s":      median(setups),
			"wall_s":       p.timed.wall.Seconds(),
			"cpu_s":        p.timed.cpu.Seconds(),
			"peak_rss_mb":  peakRSSMB(),
			"blocks_per_s": p.blocks,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
		}
		detail["setup_samples_s"] = setups
		detail["values"] = p.values
		for k, v := range p.detail {
			detail[k] = v
		}
	} else {
		untraced, err := w.pass(r, nil)
		if !r.op(err) {
			finish(res, r, detail)
			return
		}
		freeMemory()
		tr := newTracer()
		traced, err := w.pass(r, tr)
		if !r.op(err) {
			finish(res, r, detail)
			return
		}
		r.op(w.layers(r, untraced, traced))
		vals := map[string]float64{}
		for k, v := range traced.values {
			vals[k] = v
		}
		// The workload's own end-to-end values come from the untraced
		// pass, so tracing cost never leaks into them.
		for k, v := range untraced.values {
			if isWorkloadEndToEnd(k) {
				vals[k] = v
			}
		}
		vals["trace.overhead_s"] = traced.timed.wall.Seconds() - untraced.timed.wall.Seconds()
		for layer, s := range tr.selfTimes() {
			vals["self."+layer+"_s"] = s
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
		}
		spansPath := filepath.Join(cwd, ".bench_out", fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "forkbench: writing spans: %v\n", err)
		} else {
			detail["spans_file"] = spansPath
		}
		detail["untraced_wall_s"] = untraced.timed.wall.Seconds()
		detail["traced_wall_s"] = traced.timed.wall.Seconds()
		detail["spans"] = len(tr.spans)
		for k, v := range traced.detail {
			detail[k] = v
		}
	}
	finish(res, r, detail)
}

// isWorkloadEndToEnd reports whether a per-layer name is one of the
// workload-specific end-to-end values (measured untraced).
func isWorkloadEndToEnd(name string) bool {
	return !strings.Contains(name, ".")
}

// finish prints the detail line and the result line.
func finish(res Result, r *run, detail map[string]any) {
	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if d, err := json.Marshal(detail); err == nil {
		fmt.Printf("detail %s\n", d)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// hostFacts records what the numbers were measured on.
func hostFacts(root string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				facts["commit"] = s.Value
			}
		}
	}
	if sum, err := sourceDigest(root); err == nil {
		facts["source_sha256"] = sum
	}
	return facts
}

// sourceDigest fingerprints the Go sources under root (the checkout is
// not a git repository, so this stands in for the commit id).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\n")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
