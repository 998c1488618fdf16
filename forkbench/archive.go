package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"forkwatch/internal/db"
	"forkwatch/internal/export"
	"forkwatch/internal/live"
	"forkwatch/internal/live/feed"
	"forkwatch/internal/metrics"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
)

// archiveDays carries the live feed past its 65,536-event replay ring:
// six days reach ≈69.5k blocks on seed 1, five only ≈57k.
const archiveDays = 6

var archiveWorkload = workload{
	why: "6-day full-mode disk archive via serve.BuildLive past the 65,536-event feed ring, long-poll follower, then close, serve.Open restart and first answer",
	setup: func(r *run) (time.Duration, error) {
		t := time.Now()
		res, _, err := serve.BuildLive(archiveScenario(r.seed, r.dir("archive-setup")), rpc.ServerConfig{})
		d := time.Since(t)
		if err == nil {
			res.Close()
		}
		return d, err
	},
	pass:   archivePass,
	layers: archiveLayers,
}

func archiveScenario(seed int64, dir string) *sim.Scenario {
	sc := sim.NewScenario(seed, archiveDays)
	sc.Mode = sim.ModeFull
	sc.Parallelism = runtime.NumCPU()
	sc.Storage = db.Config{Backend: db.BackendDisk, DataDir: dir}
	return sc
}

// stampTable records a monotonic time per (chain, block number).
type stampTable map[string][]time.Duration

func (s stampTable) set(chain string, n uint64, at time.Duration) {
	col := s[chain]
	for uint64(len(col)) <= n {
		col = append(col, -1)
	}
	col[n] = at
	s[chain] = col
}

// stamper is the benchmark observer added after the live plane: it
// stamps each head the moment the plane has published it.
type stamper struct {
	base time.Time
	at   stampTable
}

func (s *stamper) OnBlock(ev *sim.BlockEvent) { s.at.set(ev.Chain, ev.Number, time.Since(s.base)) }
func (s *stamper) OnDay(*sim.DayEvent)        {}

// follower is a long-poll subscriber (fork_subscribe +
// fork_pollSubscription) feeding its own streaming analyzer, as
// forkanalyze -follow does with the stateless read.
type follower struct {
	r      *run
	tr     *tracer
	client *http.Client
	url    string
	base   time.Time
	an     *live.Analyzer
	recv   stampTable
	gaps   int
	polls  int
	apply  time.Duration
	err    error
}

func (f *follower) run(done chan<- struct{}) {
	defer close(done)
	var sub struct {
		Subscription string `json:"subscription"`
	}
	raw, err := post(f.client, f.url, request(1, "fork_subscribe", feed.StreamEvents, 0))
	if err == nil {
		err = decodeResult(raw, &sub)
	}
	if !f.r.op(err) {
		f.err = fmt.Errorf("subscribing: %w", err)
		return
	}
	var (
		dayStart          = time.Now()
		dayPoll, dayApply time.Duration
		pollCalls         int
		failures          int
	)
	for id := 2; ; id++ {
		t := time.Now()
		raw, err := post(f.client, f.url, request(id, "fork_pollSubscription", sub.Subscription, 4096, 250))
		at := time.Since(f.base)
		dayPoll += time.Since(t)
		pollCalls++
		f.polls++
		var res struct {
			Events []feed.Event `json:"events"`
			Gap    bool         `json:"gap"`
		}
		if err == nil {
			err = decodeResult(raw, &res)
		}
		if !f.r.op(err) {
			if failures++; failures > 20 {
				f.err = fmt.Errorf("polling: %v", err)
				return
			}
			continue
		}
		failures = 0
		if res.Gap {
			f.gaps++
		}
		t = time.Now()
		eof := false
		for _, ev := range res.Events {
			if err := f.an.Apply(ev); err != nil {
				f.err = fmt.Errorf("applying event %d: %w", ev.Seq, err)
				return
			}
			switch ev.Kind {
			case feed.KindHead:
				f.recv.set(ev.Head.Chain, ev.Head.Number, at)
			case feed.KindDay:
				// One aggregated span per simulated day keeps the trace
				// bounded however many polls a day takes.
				f.tr.add("rpc.follow_poll", -1, dayStart, dayPoll, pollCalls)
				f.tr.add("live.follow_apply", -1, dayStart, dayApply+time.Since(t), pollCalls)
				f.apply += dayApply + time.Since(t)
				dayStart, dayPoll, dayApply, pollCalls = time.Now(), 0, 0, 0
				t = time.Now()
			case feed.KindEOF:
				eof = true
			}
		}
		dayApply += time.Since(t)
		if eof {
			f.apply += dayApply
			return
		}
	}
}

func archivePass(r *run, tr *tracer) (*passResult, error) {
	p := newPass()
	root := tr.begin("bench.archive_live")
	defer tr.end(root)
	dir := r.dir("archive")
	sc := archiveScenario(r.seed, dir)

	sp := tr.begin("serve.build_live")
	res, runSim, err := serve.BuildLive(sc, rpc.ServerConfig{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			res.Close()
		}
	}()
	base, stopHTTP, err := serveHTTP(res.Server)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopHTTP != nil {
			stopHTTP()
		}
	}()
	route := base + "/" + strings.ToLower(res.Chains[0].Name)

	mono := time.Now()
	st := &stamper{base: mono, at: stampTable{}}
	var stampObs sim.Observer = st
	var wrapped []*timedObserver
	if tr != nil {
		w := &timedObserver{name: "bench.stamp", inner: st}
		stampObs, wrapped = w, append(wrapped, w)
	}
	res.Engine.AddObserver(stampObs)
	clock := newDayClock(tr, wrapped...)
	if tr != nil {
		clock.upstream, clock.upstreamName = wrapped[0], "feed.plane_deliver"
	}
	res.Engine.AddObserver(clock)

	fol := &follower{r: r, tr: tr, client: newClient(1), url: route, base: mono,
		an: live.NewAnalyzer(sc.Epoch, live.Options{}), recv: stampTable{}}
	defer fol.client.CloseIdleConnections()
	folDone := make(chan struct{})
	go fol.run(folDone)

	p.timed.start()
	sp = tr.begin("sim.run")
	clock.start()
	t := time.Now()
	err = runSim()
	engineDur := time.Since(t)
	tr.end(sp)
	if err != nil {
		res.Close() // no EOF will come: closing the feed ends the follower
		closed = true
		<-folDone
		return nil, err
	}
	sp = tr.begin("bench.follower_drain")
	select {
	case <-folDone:
	case <-time.After(120 * time.Second):
		res.Close() // wakes the long poll so the follower returns
		closed = true
		<-folDone
		return nil, fmt.Errorf("follower did not reach EOF within 120s")
	}
	tr.end(sp)
	liveDur := p.timed.stop()
	if fol.err != nil {
		return nil, fol.err
	}

	p.blocks = float64(clock.blocks) / engineDur.Seconds()
	var lag []float64
	for chain, stamps := range st.at {
		for n, s := range stamps {
			if s < 0 {
				continue
			}
			recv := fol.recv[chain]
			if n >= len(recv) || recv[n] < 0 {
				r.check(false, "follower never received %s block %d", chain, n)
				continue
			}
			lag = append(lag, max(0, ms(recv[n]-s)))
		}
	}
	snap := res.Server.Registry().Snapshot()
	p.values["sim.blocks"] = float64(clock.blocks)
	p.pct("sim.day_ms_p50", clock.engine, 0.5)
	p.pct("sim.day_ms_p99", clock.engine, 0.99)
	p.values["feed.plane_deliver_s"] = clock.upTotal.Seconds()
	p.values["feed.events"] = float64(res.Live.Feed.Seq())
	p.values["feed.gaps"] = float64(fol.gaps)
	p.values["feed.dropped"] = number(snap["live.events_dropped"])
	p.values["live.follow_apply_s"] = fol.apply.Seconds()
	p.values["db.writes_per_block"] = float64(res.Engine.StorageStats().Writes) / float64(clock.blocks)
	p.pct("live_lag_p50_ms", lag, 0.5)
	p.pct("live_lag_p99_ms", lag, 0.99)
	p.detail["engine_s"] = engineDur.Seconds()
	p.detail["follower_polls"] = fol.polls
	p.detail["feed_ring"] = 1 << 16

	// The follower's converged tables are the plane's, byte for byte.
	for _, tbl := range []struct {
		name      string
		got, want []byte
	}{
		{"blocks.csv", fol.an.BlocksCSV(), res.Live.Analyzer.BlocksCSV()},
		{"txs.csv", fol.an.TxsCSV(), res.Live.Analyzer.TxsCSV()},
		{"days.csv", fol.an.DaysCSV(), res.Live.Analyzer.DaysCSV()},
	} {
		r.check(bytes.Equal(tbl.got, tbl.want), "follower %s differs from the plane's", tbl.name)
	}

	sample := sampleRequests(rand.New(rand.NewSource(r.seed)), res.Chains, sc.Users)
	client := newClient(1)
	defer client.CloseIdleConnections()
	before := make([][]byte, len(sample))
	for i, q := range sample {
		before[i], err = post(client, base+q.route, q.body)
		if r.op(err) {
			r.op(decodeResult(before[i], nil))
		}
	}

	sp = tr.begin("serve.close")
	p.timed.start()
	stopHTTP()
	stopHTTP = nil
	res.Close()
	closed = true
	closeDur := p.timed.stop()
	tr.end(sp)
	p.values["db.disk_mb"] = dirMB(dir)

	sp = tr.begin("serve.open")
	p.timed.start()
	res2, err := serve.Open(sc, rpc.ServerConfig{})
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	base2, stop2, err := serveHTTP(res2.Server)
	if err != nil {
		res2.Close()
		tr.end(sp)
		return nil, err
	}
	shut2 := sync.OnceFunc(func() {
		stop2()
		res2.Close()
	})
	defer shut2()
	first, err := post(client, base2+sample[0].route, sample[0].body)
	restart := p.timed.stop()
	tr.end(sp)
	r.check(err == nil && bytes.Equal(first, before[0]), "first answer after restart differs: %v", err)
	for i, q := range sample[1:] {
		after, err := post(client, base2+q.route, q.body)
		r.check(err == nil && bytes.Equal(after, before[i+1]), "%s answers differently after restart: %v", q.body, err)
	}
	p.values["restart_s"] = restart.Seconds()
	p.detail["phases_s"] = map[string]float64{"engine_and_follower": liveDur.Seconds(), "close": closeDur.Seconds(), "restart": restart.Seconds()}
	if tr == nil {
		return p, nil
	}

	// The steps serve.Open just took, timed one by one through their
	// public entry points on the same store once it is closed again. The
	// plane they rebuild must hold serve.Open's tables, so the step
	// timings cannot drift from what serve.Open does.
	want := planeTables(res2.Live)
	shut2()
	sp = tr.begin("bench.restart_steps")
	defer tr.end(sp)
	plane, err := restartSteps(sc, tr, p)
	if err != nil {
		return nil, err
	}
	got := planeTables(plane)
	plane.Feed.Close()
	for i, name := range []string{"blocks.csv", "txs.csv", "days.csv"} {
		r.check(bytes.Equal(got[i], want[i]), "restart steps rebuild a %s that differs from serve.Open's", name)
	}
	return p, nil
}

// planeTables is a plane's converged blocks, txs and days tables.
func planeTables(p *live.Plane) [3][]byte {
	return [3][]byte{p.Analyzer.BlocksCSV(), p.Analyzer.TxsCSV(), p.Analyzer.DaysCSV()}
}

// restartSteps reopens the closed archive the way serve.Open does, one
// public call at a time, and records each step's time: db.Open and
// sim.OpenFullLedger per chain, export.FromBlockchain, then
// export.Replay into a fresh live plane. It closes the stores it opens.
func restartSteps(sc *sim.Scenario, tr *tracer, p *passResult) (*live.Plane, error) {
	var dbOpen, chainOpen time.Duration
	cfgs := sim.PartitionChainConfigs(sc)
	var ledgers []*sim.FullLedger
	defer func() {
		for _, l := range ledgers {
			closeStore(l.BC.DB())
		}
	}()
	for i, spec := range sc.PartitionSpecs() {
		scfg := sc.Storage
		scfg.DataDir = sim.ChainDataDir(scfg.DataDir, spec.Name)
		s := tr.begin("db.open")
		t := time.Now()
		kv, err := db.Open(scfg)
		dbOpen += time.Since(t)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("chain.open")
		t = time.Now()
		led, err := sim.OpenFullLedger(cfgs[i], sc, spec.Name, kv)
		chainOpen += time.Since(t)
		tr.end(s)
		if err != nil {
			closeStore(kv)
			return nil, err
		}
		ledgers = append(ledgers, led)
	}

	s := tr.begin("export.from_chain")
	t := time.Now()
	var blocks []export.BlockRow
	var txs []export.TxRow
	for i, spec := range sc.PartitionSpecs() {
		b, tx := export.FromBlockchain(spec.Name, ledgers[i].BC)
		blocks = append(blocks, b...)
		txs = append(txs, tx...)
	}
	fromChain := time.Since(t)
	tr.end(s)

	s = tr.begin("live.plane_replay")
	t = time.Now()
	plane := live.NewPlane(sc.Epoch, live.Options{}, metrics.NewRegistry())
	export.Replay(blocks, txs, sc.Epoch, sc.DayLength, plane)
	plane.Complete()
	replay := time.Since(t)
	tr.end(s)

	p.values["db.open_s"] = dbOpen.Seconds()
	p.values["chain.open_s"] = chainOpen.Seconds()
	p.values["export.from_chain_s"] = fromChain.Seconds()
	p.values["live.plane_replay_s"] = replay.Seconds()
	return plane, nil
}

// archiveLayers measures feed.plane_overhead_s: the untraced pass's
// Engine.Run under serve.BuildLive minus a plain sim.New + Run of the
// same scenario.
func archiveLayers(r *run, untraced, traced *passResult) error {
	freeMemory()
	sc := archiveScenario(r.seed, r.dir("archive-plain"))
	eng, err := sim.New(sc)
	if err != nil {
		return err
	}
	t := time.Now()
	if err := eng.Run(); err != nil {
		return err
	}
	plain := time.Since(t)
	for _, l := range eng.Ledgers() {
		if fl, ok := l.(*sim.FullLedger); ok {
			closeStore(fl.BC.DB())
		}
	}
	underPlane := untraced.detail["engine_s"].(float64)
	traced.values["feed.plane_overhead_s"] = underPlane - plain.Seconds()
	traced.detail["plain_engine_s"] = plain.Seconds()
	return nil
}

// closeStore closes a disk store through its wrappers.
func closeStore(kv db.KV) {
	for kv != nil {
		if c, ok := kv.(io.Closer); ok {
			c.Close()
			return
		}
		w, ok := kv.(interface{ Inner() db.KV })
		if !ok {
			return
		}
		kv = w.Inner()
	}
}

// number reads a registry snapshot value as a float.
func number(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	case int:
		return float64(x)
	}
	return 0
}

// routedRequest is one JSON-RPC body for one chain's route ("/eth").
type routedRequest struct {
	route string
	body  []byte
}

// sampleRequests draws a fixed, seeded request sample over every served
// chain: the head block with full transactions first (the restart's
// first answer), then random blocks, balances, nonces and fork_*
// windows.
func sampleRequests(rng *rand.Rand, chains []serve.ServedChain, users int) []routedRequest {
	var out []routedRequest
	id := 0
	add := func(route, method string, params ...any) {
		id++
		out = append(out, routedRequest{route: route, body: request(id, method, params...)})
	}
	for _, c := range chains {
		route := "/" + strings.ToLower(c.Name)
		head := c.Ledger.BC.Head().Number()
		add(route, "eth_getBlockByNumber", hexQ(head), true)
		add(route, "eth_blockNumber")
		for i := 0; i < 6; i++ {
			add(route, "eth_getBlockByNumber", hexQ(uint64(rng.Int63n(int64(head)+1))), true)
		}
		for i := 0; i < 4; i++ {
			h := hexQ(uint64(rng.Int63n(int64(head) + 1)))
			user := sim.UserAddress(rng.Intn(users)).Hex()
			add(route, "eth_getBalance", user, h)
			add(route, "eth_getTransactionCount", user, h)
		}
		from := uint64(rng.Int63n(int64(head) + 1))
		add(route, "fork_difficultyWindow", hexQ(from), hexQ(from+255))
		add(route, "fork_poolShares", hexQ(from), hexQ(from+255))
		add(route, "fork_echoCandidates", hexQ(from), hexQ(from+255))
	}
	return out
}
