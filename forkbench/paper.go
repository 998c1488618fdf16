package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"forkwatch"
	"forkwatch/internal/analysis"
	"forkwatch/internal/export"
	"forkwatch/internal/live"
	"forkwatch/internal/market"
	"forkwatch/internal/sim"
)

// paperDays is the paper's study window.
const paperDays = 270

var paperWorkload = workload{
	why: "researcher path: 270-day fast-mode run with Collector+Recorder, figures, 500 MB CSV export, re-read into both O1-O6 analyzers; no trie, KV or RPC",
	setup: func(r *run) (time.Duration, error) {
		t := time.Now()
		_, err := sim.New(paperScenario(r.seed))
		return time.Since(t), err
	},
	pass:   paperPass,
	layers: paperLayers,
}

func paperScenario(seed int64) *sim.Scenario {
	sc := sim.NewScenario(seed, paperDays)
	sc.Parallelism = runtime.NumCPU()
	return sc
}

// paperRun is one engine run with the researcher's observers attached.
type paperRun struct {
	col   *analysis.Collector
	rec   *export.Recorder
	clock *dayClock
	run   time.Duration
	obs   []*timedObserver
}

// runPaperEngine runs the nine-month engine with a Collector and a
// Recorder attached, wrapped in timing observers when traced.
func runPaperEngine(eng *sim.Engine, sc *sim.Scenario, tr *tracer, sw *stopwatch) (*paperRun, error) {
	pr := &paperRun{col: analysis.NewCollector(sc.Epoch), rec: &export.Recorder{}}
	if tr != nil {
		pr.obs = []*timedObserver{
			{name: "analysis.observe", inner: pr.col},
			{name: "export.record", inner: pr.rec},
		}
		eng.AddObserver(pr.obs[0])
		eng.AddObserver(pr.obs[1])
	} else {
		eng.AddObserver(pr.col)
		eng.AddObserver(pr.rec)
	}
	pr.clock = newDayClock(tr, pr.obs...)
	eng.AddObserver(pr.clock)

	sp := tr.begin("sim.run")
	pr.clock.start()
	sw.start()
	err := eng.Run()
	pr.run = sw.stop()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("engine run: %w", err)
	}
	return pr, nil
}

func paperPass(r *run, tr *tracer) (*passResult, error) {
	p := newPass()
	root := tr.begin("bench.paper_270d")
	defer tr.end(root)

	sp := tr.begin("sim.new")
	t := time.Now()
	sc := paperScenario(r.seed)
	eng, err := sim.New(sc)
	p.values["sim.new_s"] = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	pr, err := runPaperEngine(eng, sc, tr, &p.timed)
	if err != nil {
		return nil, err
	}
	engineDur := pr.run
	p.blocks = float64(pr.clock.blocks) / engineDur.Seconds()
	p.values["sim.blocks"] = float64(pr.clock.blocks)
	p.pct("sim.day_ms_p50", pr.clock.engine, 0.5)
	p.pct("sim.day_ms_p99", pr.clock.engine, 0.99)
	for _, o := range pr.obs {
		p.values[o.name+"_s"] = o.total.Seconds()
	}

	sp = tr.begin("analysis.figures")
	p.timed.start()
	figs, err := forkwatch.RenderFigures(&forkwatch.Report{Scenario: sc, Collector: pr.col})
	figures := p.timed.stop()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.values["analysis.figures_s"] = figures.Seconds()

	dir := r.dir("export")
	sp = tr.begin("export.write")
	p.timed.start()
	err = writeExport(dir, pr.rec)
	exportDur := p.timed.stop()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.values["export_s"] = exportDur.Seconds()
	p.values["export.write_s"] = exportDur.Seconds()
	p.values["export.write_mb"] = dirMB(dir)

	// Release the run's rows before reading them back (the next phase
	// starts with a collection), so peak memory is one copy of the
	// ledger, as with forksim and forkanalyze.
	fid := fidelity(sc, pr.col)
	echoes := dailyEchoes(sc, pr.col)
	pr = nil

	p.timed.start()
	sp = tr.begin("export.read")
	blocks, txs, days, err := readExport(dir)
	readDur := p.timed.stop()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Delete the export as soon as it is read back: it then never lives
	// long enough for the kernel to start writing it out, and that
	// writeback would slow whatever runs next on the disk.
	daysCSV, err := os.ReadFile(filepath.Join(dir, "days.csv"))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	p.timed.start()
	sp = tr.begin("analysis.replay")
	t2 := time.Now()
	col2 := analysis.NewCollector(sc.Epoch)
	export.ReplayAll(blocks, txs, days, sc.Epoch, sc.DayLength, col2)
	colReplay := time.Since(t2)
	tr.end(sp)
	sp = tr.begin("live.replay")
	t2 = time.Now()
	an := live.NewAnalyzer(sc.Epoch, live.Options{})
	export.ReplayAll(blocks, txs, days, sc.Epoch, sc.DayLength, an)
	liveReplay := time.Since(t2)
	tr.end(sp)
	reanalyze := readDur + p.timed.stop()
	p.values["reanalyze_s"] = reanalyze.Seconds()
	p.values["export.read_s"] = readDur.Seconds()
	p.values["analysis.replay_s"] = colReplay.Seconds()
	p.values["live.replay_s"] = liveReplay.Seconds()
	blocks, txs, days = nil, nil, nil

	p.detail["fidelity"] = fid
	p.detail["phases_s"] = map[string]float64{
		"engine": engineDur.Seconds(), "figures": figures.Seconds(),
		"export": exportDur.Seconds(), "reanalyze": reanalyze.Seconds(),
	}

	paperChecks(r, sc, figs, fid, echoes, col2, an, daysCSV, p)
	return p, nil
}

// paperChecks gates the run's outputs: the figures re-derived from the
// export match the in-run figures byte for byte, the streaming
// analyzer's tables match the exported ones, and on a seed with a
// recorded reference every figure digest and fidelity number repeats.
func paperChecks(r *run, sc *sim.Scenario, figs map[string][]byte, fid map[string]float64, echoes []float64,
	col2 *analysis.Collector, an *live.Analyzer, daysCSV []byte, p *passResult) {
	// A replay interleaves chains by timestamp where the engine delivers
	// a day partition by partition, so which chain an echo is attributed
	// to may flip within a day (see serve.Open); Fig 4 is compared by
	// its per-day total across chains, every other figure byte for byte.
	figs2, err := forkwatch.RenderFigures(&forkwatch.Report{Scenario: sc, Collector: col2})
	if r.op(err) {
		for name, want := range figs {
			if strings.HasPrefix(name, "fig4_") {
				continue
			}
			r.check(bytes.Equal(figs2[name], want), "%s re-derived from the export differs from the in-run figure", name)
		}
		r.check(slices.Equal(echoes, dailyEchoes(sc, col2)), "per-day echo totals differ between the run and its replay")
	}
	// The two O1-O6 implementations agree on the same replay.
	snap := an.Snapshot()
	r.check(len(snap.Chains) == len(sc.PartitionNames()), "live analyzer saw %d chains", len(snap.Chains))
	for _, c := range snap.Chains {
		blocks, txs := 0.0, 0.0
		for _, v := range col2.BlocksPerHour(c.Chain) {
			blocks += v
		}
		for _, v := range col2.TxPerDay(c.Chain) {
			txs += v
		}
		r.check(float64(c.Blocks) == blocks, "%s blocks: live %d, collector %v", c.Chain, c.Blocks, blocks)
		r.check(float64(c.Txs) == txs, "%s txs: live %d, collector %v", c.Chain, c.Txs, txs)
		r.check(int(c.Echoes) == col2.TotalEchoes(c.Chain), "%s echoes: live %d, collector %d", c.Chain, c.Echoes, col2.TotalEchoes(c.Chain))
		r.check(c.RecoveryHour == col2.RecoveryHour(c.Chain, 14, 0.9, 6), "%s recovery hour: live %d, collector %d",
			c.Chain, c.RecoveryHour, col2.RecoveryHour(c.Chain, 14, 0.9, 6))
	}
	r.check(bytes.Equal(an.DaysCSV(), daysCSV), "live analyzer days.csv differs from the export")
	digests := map[string]string{}
	for name, b := range figs {
		sum := sha256.Sum256(b)
		digests[name] = hex.EncodeToString(sum[:])
	}
	p.detail["figure_sha256"] = digests
	ref, ok := paperReferences[r.seed]
	p.detail["reference_seed"] = ok
	if !ok {
		return
	}
	for name, want := range ref.figures {
		r.check(digests[name] == want, "%s sha256 %s, reference %s", name, digests[name], want)
	}
	for name, want := range ref.fidelity {
		r.check(fid[name] == want, "fidelity %s = %v, reference %v", name, fid[name], want)
	}
}

// dailyEchoes sums each day's echoes over every chain.
func dailyEchoes(sc *sim.Scenario, col *analysis.Collector) []float64 {
	var sum []float64
	for _, name := range sc.PartitionNames() {
		for d, v := range col.EchoesPerDay(name) {
			for len(sum) <= d {
				sum = append(sum, 0)
			}
			sum[d] += v
		}
	}
	return sum
}

// fidelity computes the paper-fidelity numbers the go-test benchmarks
// report and discard. They are informational and must repeat exactly for
// a seed.
func fidelity(sc *sim.Scenario, col *analysis.Collector) map[string]float64 {
	rep := &forkwatch.Report{Scenario: sc, Collector: col}
	names := rep.Chains()
	maj, min := names[0], names[1]
	last := col.Days() - 1
	dMaj, dMin := col.DailyDifficulty(maj), col.DailyDifficulty(min)
	hMaj, hMin := col.HashesPerUSD(maj, 5), col.HashesPerUSD(min, 5)
	corr := 0.0
	if len(hMaj) > 50 && len(hMin) > 50 {
		corr = market.Correlation(hMaj[50:], hMin[50:])
	}
	return map[string]float64{
		"etc_recovery_hours":     float64(rep.RecoveryHours()[1]),
		"difficulty_ratio_final": dMaj[last] / dMin[last],
		"correlation_post_sep":   corr,
		"peak_etc_echo_pct":      analysis.MaxOver(col.EchoPct(min), 0, 30),
		"etc_top5_final_share":   col.TopNShare(min, 5)[last],
	}
}

// writeExport writes the ledger export the way cmd/forksim -out does.
func writeExport(dir string, rec *export.Recorder) error {
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write("blocks.csv", func(f *os.File) error { return export.WriteBlocks(f, rec.Blocks) }); err != nil {
		return err
	}
	if err := write("txs.csv", func(f *os.File) error { return export.WriteTxs(f, rec.Txs) }); err != nil {
		return err
	}
	return write("days.csv", func(f *os.File) error { return export.WriteDays(f, rec.Days) })
}

// readExport reads the export back the way cmd/forkanalyze does.
func readExport(dir string) ([]export.BlockRow, []export.TxRow, []export.DayRow, error) {
	read := func(name string, fn func(f *os.File) error) error {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return fmt.Errorf("reading %s: %w", name, err)
		}
		return nil
	}
	var (
		blocks []export.BlockRow
		txs    []export.TxRow
		days   []export.DayRow
	)
	err := read("blocks.csv", func(f *os.File) (err error) { blocks, err = export.ReadBlocks(f); return })
	if err == nil {
		err = read("txs.csv", func(f *os.File) (err error) { txs, err = export.ReadTxs(f); return })
	}
	if err == nil {
		err = read("days.csv", func(f *os.File) (err error) { days, err = export.ReadDays(f); return })
	}
	return blocks, txs, days, err
}

// paperLayers measures the serial engine for sim.parallel_efficiency:
// throughput at Parallelism=nproc over nproc times throughput at 1.
func paperLayers(r *run, untraced, traced *passResult) error {
	freeMemory()
	sc := paperScenario(r.seed)
	sc.Parallelism = 1
	eng, err := sim.New(sc)
	if err != nil {
		return err
	}
	pr, err := runPaperEngine(eng, sc, nil, &stopwatch{})
	if err != nil {
		return err
	}
	serial := float64(pr.clock.blocks) / pr.run.Seconds()
	traced.values["sim.parallel_efficiency"] = untraced.blocks / (float64(runtime.NumCPU()) * serial)
	traced.detail["serial_blocks_per_s"] = serial
	return nil
}

// freeMemory returns the previous phase's garbage to the OS so the next
// phase's peak is its own.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
