package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/metrics"
	"forkwatch/internal/prng"
	"forkwatch/internal/rpc"
	"forkwatch/internal/serve"
	"forkwatch/internal/sim"
)

const (
	// replicaDays is the primary's horizon (built in memory during set-up).
	replicaDays = 2
	// catchUpRounds is how many fresh replicas catch up in one pass.
	catchUpRounds = 5
	// openLoopRate is each mix's fixed offered rate in the open loop. On
	// the hot mix it stands for about 150 dashboards that each refresh
	// once per 14-second mainnet block, a refresh being forkload's
	// 19-request cycle on both chains (150 × 38 / 14 ≈ 400 req/s). The
	// cold mix is offered the same rate so the two compare. Both are far
	// under the replica's capacity on a 2-core host, so the percentiles
	// measure service time rather than a growing backlog.
	openLoopRate = 400
	// closedLoopReads is each mix's closed-loop fixed work, about 2.5 s
	// on a 2-core host for either mix, so a slower read path lengthens
	// wall_s and the two mixes weigh about equally in it.
	closedLoopReads = 35000
)

var replicaWorkload = workload{
	why: "five fresh disk replicas, fsync skipped, catch up over loopback p2p from a 2-day in-memory primary, then forkload's hot mix and a cold random-archive mix, each open and closed loop on nproc conns",
	setup: func(r *run) (time.Duration, error) {
		pr, err := buildPrimary(r.seed)
		if err != nil {
			return 0, err
		}
		pr.close()
		return pr.setup, nil
	},
	pass: replicaPass,
	layers: func(r *run, untraced, traced *passResult) error {
		traced.values["p2p.sync_overhead_s"] = untraced.detail["catch_up_s"].(float64) - traced.detail["bare_import_s"].(float64)
		return nil
	},
}

func replicaScenario(seed int64) *sim.Scenario {
	sc := sim.NewScenario(seed, replicaDays)
	sc.Mode = sim.ModeFull
	sc.Parallelism = runtime.NumCPU()
	return sc
}

// primary is the set-up of replica_reads: an in-memory archive served
// for replicas over loopback TCP.
type primary struct {
	res   *serve.Result
	p2p   *serve.Primary
	addrs []string
	build time.Duration
	setup time.Duration
}

func (p *primary) close() {
	p.p2p.Close()
	p.res.Close()
}

func buildPrimary(seed int64) (*primary, error) {
	t := time.Now()
	sc := replicaScenario(seed)
	res, err := serve.Build(sc, rpc.ServerConfig{})
	if err != nil {
		return nil, err
	}
	build := time.Since(t)
	addrs := make([]string, len(res.Chains))
	for i := range addrs {
		// The primary's node identity derives from its address, so the
		// replica must dial exactly the address it listens on: pick a
		// free loopback port first.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			res.Close()
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	p2p, err := serve.ServePrimary(res, serve.PrimaryConfig{Addrs: addrs, Transport: serve.TCPTransport(2 * time.Second)})
	if err != nil {
		res.Close()
		return nil, err
	}
	return &primary{res: res, p2p: p2p, addrs: addrs, build: build, setup: time.Since(t)}, nil
}

// readMix draws seeded read requests from one of two mixes, which the
// workload sends and reports apart, so no share of hot to cold traffic
// is assumed.
//
// The hot mix is cmd/forkload's workload(), the repository's model of
// dashboard traffic, which BENCH_pr4.json measured: per chain, 10 head
// polls, 2 header reads each at the head, half and a quarter of it, 1
// head block with full transactions, and 1 each of fork_poolShares and
// fork_difficultyWindow over the last 256 blocks — 19 requests the
// response cache serves after their first miss.
//
// The cold mix reads the archive where no cache helps: full-transaction
// blocks at uniformly random heights and balances and nonces at random
// (height, user) pairs, a working set far past the 4096-entry
// per-method caches. It draws the three methods in equal thirds.
type readMix struct {
	rng    *rand.Rand
	hot    bool
	chains []mixChain
	users  int
	id     int
}

type mixChain struct {
	route string
	head  uint64
	hot   []mixCall // forkload's hot requests, repeated by weight
}

type mixCall struct {
	method string
	params []any
}

func newReadMix(rng *rand.Rand, hot bool, chains []serve.ServedChain, users int) *readMix {
	m := &readMix{rng: rng, hot: hot, users: users}
	for _, c := range chains {
		head := c.Ledger.BC.Head().Number()
		mc := mixChain{route: "/" + strings.ToLower(c.Name), head: head}
		add := func(times int, method string, params ...any) {
			for i := 0; i < times; i++ {
				mc.hot = append(mc.hot, mixCall{method, params})
			}
		}
		add(10, "eth_blockNumber")
		for _, frac := range []uint64{4, 2, 1} {
			add(2, "eth_getBlockByNumber", hexQ(head*frac/4), false)
		}
		add(1, "eth_getBlockByNumber", hexQ(head), true)
		from := uint64(1)
		if head > 256 {
			from = head - 256
		}
		add(1, "fork_poolShares", hexQ(from), hexQ(head))
		add(1, "fork_difficultyWindow", hexQ(from), hexQ(head))
		m.chains = append(m.chains, mc)
	}
	return m
}

func (m *readMix) next() routedRequest {
	c := m.chains[m.rng.Intn(len(m.chains))]
	m.id++
	if m.hot {
		call := c.hot[m.rng.Intn(len(c.hot))]
		return routedRequest{c.route, request(m.id, call.method, call.params...)}
	}
	h := hexQ(uint64(m.rng.Int63n(int64(c.head) + 1)))
	user := sim.UserAddress(m.rng.Intn(m.users)).Hex()
	var body []byte
	switch m.rng.Intn(3) {
	case 0:
		body = request(m.id, "eth_getBlockByNumber", h, true)
	case 1:
		body = request(m.id, "eth_getBalance", user, h)
	default:
		body = request(m.id, "eth_getTransactionCount", user, h)
	}
	return routedRequest{c.route, body}
}

// send posts one read and counts it; a transport, HTTP or JSON-RPC error
// is a failed operation.
func (r *run) send(c *http.Client, base string, q routedRequest) bool {
	raw, err := post(c, base+q.route, q.body)
	if err == nil {
		err = decodeResult(raw, nil)
	}
	return r.op(err)
}

// openLoop offers the mix at a fixed rate for d and times each request
// from when it was due, so a stall also delays the requests queued
// behind it. It returns the latencies (ms) and the generator's lateness
// (ms) per request.
func openLoop(r *run, c *http.Client, base string, mix *readMix, conns int, d time.Duration) (lat, late []float64, achieved float64) {
	n := int(d.Seconds() * openLoopRate)
	reqs := make([]routedRequest, n)
	for i := range reqs {
		reqs[i] = mix.next()
	}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to every request: the generator never blocks
	lat = make([]float64, n)
	late = make([]float64, n)
	ok := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok[j.i] = r.send(c, base, reqs[j.i])
				lat[j.i] = ms(time.Since(j.due))
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / openLoopRate)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = ms(time.Since(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	var good []float64
	for i, v := range lat {
		if ok[i] {
			good = append(good, v)
		}
	}
	return good, late, float64(len(good)) / elapsed.Seconds()
}

// closedLoop runs conns callers that each send their next read as soon
// as the previous one returns, closedLoopReads in all from the hot or
// the cold mix, and returns completed reads per second.
func closedLoop(r *run, c *http.Client, base string, seed int64, hot bool, chains []serve.ServedChain, users, conns int) float64 {
	var (
		wg   sync.WaitGroup
		done atomic.Int64
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		mix := newReadMix(prng.New(seed, "forkbench", "closed", fmt.Sprint(hot), fmt.Sprint(w)), hot, chains, users)
		go func() {
			defer wg.Done()
			for i := 0; i < closedLoopReads/conns; i++ {
				if r.send(c, base, mix.next()) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// serveInProcess answers one request through rpc.Server.ServeHTTP
// without HTTP, returning the body and the handler's latency.
func serveInProcess(h http.Handler, q routedRequest) ([]byte, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, q.route, bytes.NewReader(q.body))
	t := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Body.Bytes(), time.Since(t)
}

func replicaPass(r *run, tr *tracer) (*passResult, error) {
	p := newPass()
	root := tr.begin("bench.replica_reads")
	defer tr.end(root)

	sp := tr.begin("serve.build")
	prim, err := buildPrimary(r.seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer prim.close()
	p.values["serve.build_s"] = prim.build.Seconds()
	sc := replicaScenario(r.seed)
	sc.Storage = db.Config{Backend: db.BackendDisk}
	var blocks uint64
	for _, c := range prim.res.Chains {
		blocks += c.Ledger.BC.Head().Number()
	}

	// The replica catches up catchUpRounds times, each time into a fresh
	// directory; blocks_per_s is the median round, and wall_s counts them
	// all. Only the last replica stays up for the reads, and only its
	// stores are metered.
	var (
		rep    *serve.Replica
		meter  *kvMeter
		rounds []float64
		cpu    []float64
	)
	defer func() {
		if rep != nil {
			rep.Close()
		}
	}()
	for i := 0; i < catchUpRounds; i++ {
		if rep != nil {
			rep.Close()
			rep = nil
			// Hand the last round's memory back and write back its pages
			// before the next round is timed.
			freeMemory()
			syscall.Sync()
		}
		if tr != nil && i == catchUpRounds-1 {
			meter = &kvMeter{}
		}
		sp = tr.begin("p2p.catch_up")
		c0 := p.timed.cpu
		p.timed.start()
		rep, err = catchUp(r, prim, sc, meter)
		d := p.timed.stop()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, d.Seconds())
		cpu = append(cpu, (p.timed.cpu - c0).Seconds())
	}
	catchUpS := median(rounds)
	p.blocks = float64(blocks) / catchUpS
	p.values["sync_blocks_per_s"] = p.blocks
	p.detail["catch_up_s"] = catchUpS
	p.detail["catch_up_rounds_s"] = rounds
	p.detail["catch_up_cpu_s"] = cpu
	p.detail["blocks"] = blocks
	if meter != nil {
		p.values["db.syncs_per_block"] = float64(meter.syncs.Load()) / float64(blocks)
		p.values["db.bytes_per_block"] = float64(meter.bytes.Load()) / float64(blocks)
		p.values["db.batch_write_us_p99"] = meter.batchWrite.quantileUS(0.99)
	}

	// A seeded sample of the replica's answers is the primary's, byte
	// for byte.
	for _, q := range sampleRequests(rand.New(rand.NewSource(r.seed)), prim.res.Chains, sc.Users) {
		want, _ := serveInProcess(prim.res.Server, q)
		got, _ := serveInProcess(rep.Server, q)
		r.check(bytes.Equal(got, want) && decodeResult(got, nil) == nil, "replica answers %s differently: %.200s vs %.200s", q.body, got, want)
	}

	base, stop, err := serveHTTP(rep.Server)
	if err != nil {
		return nil, err
	}
	defer stop()
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	reg := rep.Server.Registry()
	before := reg.Snapshot()
	if meter != nil {
		meter.reading.Store(true)
	}
	stopSampler := sampleQueueDepth(tr, reg, p)

	// Each mix runs on its own: a closed loop of fixed work yields
	// capacity and counts in wall_s, then an open loop for half of
	// --seconds at a fixed rate yields latency.
	openLoops := map[string]any{}
	var hotSnap map[string]any
	for _, hot := range []bool{true, false} {
		name := mixName(hot)
		sp = tr.begin("rpc.closed_loop_" + name)
		p.timed.start()
		capacity := closedLoop(r, client, base, r.seed, hot, prim.res.Chains, sc.Users, conns)
		p.timed.stop()
		tr.end(sp)
		if hot {
			hotSnap = reg.Snapshot()
		}
		sp = tr.begin("rpc.open_loop_" + name)
		mix := newReadMix(prng.New(r.seed, "forkbench", "open", name), hot, prim.res.Chains, sc.Users)
		lat, late, achieved := openLoop(r, client, base, mix, conns, r.seconds/2)
		tr.end(sp)
		if hot {
			p.pct("rpc_p50_ms", lat, 0.5)
			p.pct("rpc_hot_p99_ms", lat, 0.99)
			p.values["rpc_capacity_rps"] = capacity
		} else {
			p.pct("rpc_cold_p50_ms", lat, 0.5)
			p.pct("rpc_p99_ms", lat, 0.99)
			p.values["rpc_cold_capacity_rps"] = capacity
		}
		openLoops[name] = map[string]any{
			"offered_rps": openLoopRate, "achieved_rps": achieved, "samples": len(lat),
			"late_p50_ms": percentile(late, 0.5), "late_p99_ms": percentile(late, 0.99), "late_max_ms": percentile(late, 1),
			"closed_loop_rps": capacity, "closed_loop_reads": closedLoopReads,
		}
	}
	stopSampler()
	p.detail["open_loop"] = openLoops
	p.detail["conns"] = conns

	if tr == nil {
		return p, nil
	}
	after := reg.Snapshot()
	hits := sumSuffix(hotSnap, ".cache_hits") - sumSuffix(before, ".cache_hits")
	misses := sumSuffix(hotSnap, ".cache_misses") - sumSuffix(before, ".cache_misses")
	if hits+misses > 0 {
		p.values["rpc.cache_hit_rate"] = hits / (hits + misses)
	}
	p.values["rpc.shed"] = sumSuffix(after, ".shed") - sumSuffix(before, ".shed")
	p.values["db.get_us_p50"] = meter.get.quantileUS(0.5)
	meter.reading.Store(false)

	handlerLayer(r, tr, rep, base, client, prim, sc.Users, p)
	return p, bareImport(r, tr, prim, p)
}

// catchUp starts a disk-backed replica of prim in a fresh directory and
// waits until it holds the primary's heads. Its stores skip fsync
// (openDisk); meter, when set, wraps them.
func catchUp(r *run, prim *primary, sc *sim.Scenario, meter *kvMeter) (*serve.Replica, error) {
	dir := r.dir("replica")
	var openErr error
	cfg := serve.ReplicaConfig{
		Name:         "forkbench-replica",
		PrimaryAddrs: prim.addrs,
		Transport:    serve.TCPTransport(2 * time.Second),
		DataDir:      dir,
		// Swap the store serve opened in the chain's directory for one on
		// the same directory that skips fsync.
		WrapKV: func(name string, kv db.KV) db.KV {
			closeStore(kv)
			store, err := openDisk(sim.ChainDataDir(dir, name), false, nil)
			if err != nil {
				openErr = err
				return kv
			}
			if meter != nil {
				return &meteredKV{inner: store, m: meter}
			}
			return store
		},
	}
	rep, err := serve.NewReplica(sc, cfg, rpc.ServerConfig{})
	if err == nil && openErr != nil {
		rep.Close()
		err = openErr
	}
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(150 * time.Second)
	for !caughtUp(rep, prim.res) {
		if time.Now().After(deadline) {
			rep.Close()
			return nil, fmt.Errorf("replica did not catch up within 150s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rep, nil
}

func mixName(hot bool) string {
	if hot {
		return "hot"
	}
	return "cold"
}

// caughtUp reports whether every replica chain's head is the primary's.
func caughtUp(rep *serve.Replica, prim *serve.Result) bool {
	for _, pc := range prim.Chains {
		rl := rep.Ledger(pc.Name)
		if rl == nil || rl.BC.Head().Hash() != pc.Ledger.BC.Head().Hash() {
			return false
		}
	}
	return true
}

// sampleQueueDepth records the deepest rpc.queue_depth seen while the
// read mixes run (traced passes only).
func sampleQueueDepth(tr *tracer, reg *metrics.Registry, p *passResult) func() {
	if tr == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	g := reg.Gauge("rpc.queue_depth")
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		max := int64(0)
		for {
			select {
			case <-quit:
				p.values["rpc.queue_depth_max"] = float64(max)
				return
			case <-tick.C:
				if v := g.Value(); v > max {
					max = v
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// handlerLayer times rpc.Server.ServeHTTP in-process on 2000 reads of
// each mix, and the same hot reads over loopback HTTP for the transport's
// share of a request.
func handlerLayer(r *run, tr *tracer, rep *serve.Replica, base string, client *http.Client, prim *primary, users int, p *passResult) {
	sp := tr.begin("rpc.handler")
	defer tr.end(sp)
	hotMix := newReadMix(prng.New(r.seed, "forkbench", "handler", "hot"), true, prim.res.Chains, users)
	coldMix := newReadMix(prng.New(r.seed, "forkbench", "handler", "cold"), false, prim.res.Chains, users)
	var hot, cold, loop []float64
	for i := 0; i < 2000; i++ {
		q := hotMix.next()
		_, d := serveInProcess(rep.Server, q)
		hot = append(hot, float64(d)/1e3)
		t := time.Now()
		r.send(client, base, q)
		loop = append(loop, float64(time.Since(t))/1e3)
		_, d = serveInProcess(rep.Server, coldMix.next())
		cold = append(cold, float64(d)/1e3)
	}
	p.pct("rpc.hot_us_p50", hot, 0.5)
	p.pct("rpc.cold_us_p50", cold, 0.5)
	p.pct("rpc.cold_us_p99", cold, 0.99)
	p.values["rpc.http_overhead_us"] = percentile(loop, 0.5) - percentile(hot, 0.5)
}

// bareImport inserts the primary's canonical blocks into fresh disk
// stores with Blockchain.InsertBlock: the replica's import without p2p,
// one goroutine per chain as the replica's follow loops run. It imports
// twice: into stores that skip fsync like the replica's, for the insert
// latencies and the p2p overhead, then into durable ones, for what the
// fsyncs the benchmark otherwise skips cost on this host's disk.
func bareImport(r *run, tr *tracer, prim *primary, p *passResult) error {
	var fsync hist
	for _, durable := range []bool{false, true} {
		name := "chain.bare_import"
		if durable {
			name = "db.durable_import"
		}
		sp := tr.begin(name)
		insert, total, err := importChains(r, prim, durable, &fsync)
		tr.end(sp)
		if err != nil {
			return err
		}
		if durable {
			p.values["db.durable_blocks_per_s"] = float64(len(insert)) / total.Seconds()
			p.values["db.fsync_us_p50"] = fsync.quantileUS(0.5)
			p.values["db.fsync_us_p99"] = fsync.quantileUS(0.99)
			p.detail["durable_import_s"] = total.Seconds()
			continue
		}
		p.pct("chain.insert_ms_p50", insert, 0.5)
		p.pct("chain.insert_ms_p99", insert, 0.99)
		p.detail["bare_import_s"] = total.Seconds()
	}
	return nil
}

// importChains imports every served chain into a new directory and
// returns each insert's latency (ms) and the time for all of them.
func importChains(r *run, prim *primary, durable bool, fsync *hist) ([]float64, time.Duration, error) {
	sc := replicaScenario(r.seed)
	cfgs := sim.PartitionChainConfigs(sc)
	gen := sim.NewWorkload(sc).Genesis()
	dir := r.dir("bare")
	chains := prim.res.Chains
	insert := make([][]float64, len(chains))
	errs := make([]error, len(chains))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range chains {
		wg.Add(1)
		go func(i int, c serve.ServedChain) {
			defer wg.Done()
			kv, err := openDisk(sim.ChainDataDir(dir, c.Name), durable, fsync)
			if err != nil {
				errs[i] = err
				return
			}
			defer closeStore(kv)
			errs[i] = importChain(cfgs[i], gen, sc.Seed, c, kv, &insert[i])
		}(i, c)
	}
	wg.Wait()
	total := time.Since(start)
	var all []float64
	for i := range chains {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		all = append(all, insert[i]...)
	}
	return all, total, nil
}

// importChain inserts one served chain's canonical blocks into kv,
// appending each insert's latency (ms) to times.
func importChain(cfg *chain.Config, gen *chain.Genesis, seed int64, c serve.ServedChain, kv db.KV, times *[]float64) error {
	led, err := sim.NewFullLedgerWithDB(cfg, gen, prng.New(seed, "seal", c.Name), kv)
	if err != nil {
		return err
	}
	for _, b := range c.Ledger.BC.CanonicalBlocks(1, c.Ledger.BC.Head().Number()) {
		t := time.Now()
		if err := led.BC.InsertBlock(b); err != nil {
			return fmt.Errorf("bare import of %s block %d: %w", c.Name, b.Number(), err)
		}
		*times = append(*times, ms(time.Since(t)))
	}
	return nil
}

// sumSuffix sums the registry snapshot's numeric values whose names end
// in suffix.
func sumSuffix(snap map[string]any, suffix string) float64 {
	sum := 0.0
	for name, v := range snap {
		if strings.HasSuffix(name, suffix) {
			sum += number(v)
		}
	}
	return sum
}
