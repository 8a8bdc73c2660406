package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/obs"
	"siren/internal/receiver"
	"siren/internal/server"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// The live workload replays the stream open-loop over loopback UDP into a
// receiver writing a WAL-backed store with its default group commit and
// reader/writer counts, as siren-receiver -serve-addr runs it, while the
// benchmark refreshes the catalog and seals the store on fixed periods and
// one paced client sends identify requests.
const (
	// liveRate is the offered load: a third of 60,000 datagrams/s, the
	// highest rate that stayed loss-free with sealing and refresh on, on
	// a 2-vCPU Xeon (80,000/s lost 1.7% and freshness p50 rose eightfold).
	liveRate = 20000
	// refreshPeriod and sealPeriod are the catalog refresh and store seal
	// periods.
	refreshPeriod = 100 * time.Millisecond
	sealPeriod    = 2 * time.Second
	// identifyRate paces the identify client (requests per second). It is
	// an assumed light load that times identify while ingest runs, not a
	// measured request rate.
	identifyRate = 50
	// drainIdle ends the wait for the receiver once nothing has been
	// stored for this long; drainMax caps that wait and the wait for every
	// job to be fresh.
	drainIdle = 500 * time.Millisecond
	drainMax  = 10 * time.Second
)

type liveState struct {
	e       *env
	s       *stream
	n       int            // datagrams offered: rate × seconds
	jobs    map[string]job // per job of the offered prefix
	want    []byte         // oracle report of the offered prefix
	queries []analysis.Digests
	pass    int
}

func setUpLive(e *env) (state, [sha256.Size]byte, error) {
	n := int(liveRate * e.seconds.Seconds())
	scale := math.Max(baseScale, 1.1*float64(n)/datagramsPerScale)
	s, err := record(e.seed, scale)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	if len(s.dgs) < n {
		return nil, s.sum, fmt.Errorf("scale %.4f recorded %d datagrams, the run offers %d", scale, len(s.dgs), n)
	}
	recs, want, err := s.oracle(n)
	if err != nil {
		return nil, s.sum, err
	}
	st := &liveState{e: e, s: s, n: n, jobs: s.jobs(n), want: want}
	rng := rand.New(rand.NewSource(e.seed))
	for _, i := range rng.Perm(len(recs)) {
		if q := analysis.RecordDigests(recs[i]); !q.Empty() && len(st.queries) < 256 {
			st.queries = append(st.queries, q)
		}
	}
	if len(st.queries) == 0 {
		return nil, s.sum, errors.New("live: the stream has no executables to query")
	}
	return st, s.sum, nil
}

func (st *liveState) close() error { return nil }

// liveRun is the pipeline one pass drives.
type liveRun struct {
	db  *sirendb.DB
	rcv *receiver.Receiver
	cat *catalog.Catalog
	url string
	tx  *wire.UDPTransport

	stopServer func() error
}

func (st *liveState) start(dir string, reg *obs.Registry) (*liveRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := sirendb.OpenOptions(filepath.Join(dir, "siren.db"), sirendb.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	r := &liveRun{db: db}
	r.rcv = receiver.New(db, receiver.Options{Metrics: reg})
	addr, err := r.rcv.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, r.rcv.Close(), db.Close())
	}
	r.cat = catalog.New(catalog.StoreSource(db), catalog.Options{Metrics: reg})
	r.cat.Refresh()
	srv := server.New(r.cat)
	if reg != nil {
		srv = server.NewWithMetrics(r.cat, reg)
	}
	if r.url, r.stopServer, err = serve(srv); err != nil {
		return nil, errors.Join(err, r.rcv.Close(), db.Close())
	}
	if r.tx, err = wire.DialUDP(addr); err != nil {
		return nil, errors.Join(err, r.stop(), db.Close())
	}
	return r, nil
}

// stop shuts the pipeline down in ingest order and waits for the server.
func (r *liveRun) stop() error {
	err := r.stopServer()
	if r.tx != nil {
		err = errors.Join(err, r.tx.Close())
	}
	return errors.Join(err, r.rcv.Close())
}

func (st *liveState) measure(tr *tracer, reg *obs.Registry) (*outcome, error) {
	st.pass++
	dir := filepath.Join(st.e.dir, fmt.Sprintf("live-%d", st.pass))
	defer os.RemoveAll(dir)
	r, err := st.start(dir, reg)
	if err != nil {
		return nil, err
	}
	// Backstop for the error returns below; the success path closes and checks.
	defer func() { _ = r.db.Close() }()
	client := newClient()
	defer client.CloseIdleConnections()

	period := time.Second / liveRate
	o := &outcome{ops: int64(st.n), layer: map[string]float64{}}
	var (
		mu                     sync.Mutex // guards the figures the goroutines below append to
		fresh                  = make(map[string]bool)
		refreshMS, sealMS      []float64
		reconsolidated, jobsIn int
		identifyLat            []float64
		identifyErr, sealErr   int64
		depthMax               int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * period) }

	// Refresh on a fixed period; a job is fresh at the first published
	// generation holding all of its datagrams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(refreshPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sp := tr.begin("catalog.refresh", 0)
			rs := r.cat.Refresh()
			d := sp.end()
			published := time.Now()
			gen := r.cat.Generation()
			mu.Lock()
			if !rs.NoOp {
				refreshMS = append(refreshMS, ms(d))
				reconsolidated += rs.Reconsolidated
				jobsIn += rs.Jobs
			}
			for _, j := range gen.Jobs() {
				if want, ok := st.jobs[j.JobID]; ok && !fresh[j.JobID] && j.Messages == want.count {
					fresh[j.JobID] = true
					o.lat = append(o.lat, float64(published.Sub(due(want.last))))
				}
			}
			mu.Unlock()
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sealPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sp := tr.begin("sirendb.seal", 0)
			err := r.db.Seal()
			d := sp.end()
			mu.Lock()
			sealMS = append(sealMS, ms(d))
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench: live: seal:", err)
				sealErr++
			}
			mu.Unlock()
		}
	}()

	// One identify client, paced open-loop: latency counts from the due time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			at := t0.Add(time.Duration(k) * time.Second / identifyRate)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(at)):
			}
			sp := tr.begin("server.identify", 0)
			_, err := identify(client, r.url, st.queries[k%len(st.queries)])
			sp.end()
			lat := time.Since(at)
			mu.Lock()
			identifyLat = append(identifyLat, float64(lat))
			if err != nil {
				identifyErr++
			}
			mu.Unlock()
		}
	}()

	if tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				d := r.rcv.QueueDepth()
				mu.Lock()
				depthMax = max(depthMax, d)
				mu.Unlock()
			}
		}()
	}

	// The generator: datagram i is due at t0 + i/rate, whenever it is sent.
	cpu0 := cpuTime()
	var late time.Duration
	var sendErr int64
	for i, d := range st.s.dgs[:st.n] {
		at := due(i)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		late = max(late, time.Since(at))
		sp := tr.begin("wire.send", 0)
		if err := r.tx.Send(d); err != nil {
			sendErr++
		}
		sp.end()
	}
	inserted := st.drain(r.rcv)
	o.cpu = cpuTime() - cpu0
	o.wall = time.Since(t0)
	o.done = inserted

	// Let refreshes publish what was stored, then stop the clients. A job
	// still not fresh then is timed at the final generation below.
	for end := time.Now().Add(drainMax); time.Now().Before(end); time.Sleep(refreshPeriod / 4) {
		mu.Lock()
		all := len(fresh) == len(st.jobs)
		mu.Unlock()
		if all {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := r.stop(); err != nil {
		return nil, err
	}
	stats := r.rcv.Stats().Snapshot()
	stored := int64(r.db.Count())
	if stored != stats.Inserted {
		fmt.Fprintf(os.Stderr, "e2ebench: live: store holds %d rows, receiver inserted %d\n", stored, stats.Inserted)
	}

	// Every job the refreshes above did not see complete is timed at the
	// final generation, so the slowest jobs stay in the freshness tail. With
	// nothing lost, a job the final generation does not hold complete is a
	// failed operation.
	r.cat.Refresh()
	published := time.Now()
	gen := r.cat.Generation()
	complete := make(map[string]bool)
	for _, j := range gen.Jobs() {
		if want, ok := st.jobs[j.JobID]; ok && j.Messages == want.count {
			complete[j.JobID] = true
		}
	}
	var atFinal, stale int64
	for id, want := range st.jobs {
		switch {
		case fresh[id]:
		case complete[id]:
			atFinal++
			o.lat = append(o.lat, float64(published.Sub(due(want.last))))
		default:
			stale++
		}
	}
	lost := stored < int64(st.n)
	if lost {
		stale = 0 // the lost datagrams are the failed operations
	} else if stale > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: live: %d of %d jobs incomplete in the final generation with nothing lost\n", stale, len(st.jobs))
	}

	// The oracle: with nothing lost, the final generation must render
	// byte-identically to consolidation of the parsed stream.
	oracleFailed := int64(0)
	if !lost {
		got, err := render(gen.Dataset.Records, gen.Stats)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, st.want) {
			fmt.Fprintln(os.Stderr, "e2ebench: live: final generation differs from ConsolidateMessages over the stream")
			oracleFailed = 1
		}
	}
	if err := r.db.Close(); err != nil {
		return nil, err
	}

	o.attempted = int64(st.n) + int64(len(identifyLat)) + int64(len(sealMS)) + int64(len(st.jobs)) + 1
	o.failed = int64(st.n) - stored + sendErr + identifyErr + sealErr + stale + oracleFailed
	o.figures = []figure{
		{"offered_rate", liveRate, "1/s"},
		{"ingest_cpu_us_per_dg", float64(o.cpu.Microseconds()) / float64(st.n), "us"},
		{"fresh_p50_ms", quantile(o.lat, 0.5) / 1e6, "ms"},
		{"fresh_p95_ms", quantile(o.lat, 0.95) / 1e6, "ms"},
		{"fresh_jobs", float64(len(o.lat)), "count"},
		{"fresh_at_final_gen", float64(atFinal), "count"},
		{"delivered_frac", float64(stored) / float64(st.n), "frac"},
		{"live_identify_p50_us", quantile(identifyLat, 0.5) / 1e3, "us"},
		{"gen.late_max_ms", ms(late), "ms"},
		{"seals", float64(len(sealMS)), "count"},
		{"seal_max_ms", maxOf(sealMS), "ms"},
		{"refreshes", float64(len(refreshMS)), "count"},
	}
	o.layer["receiver.queue_depth_max"] = float64(depthMax)
	o.layer["receiver.dropped"] = float64(stats.Dropped)
	o.layer["receiver.inserted"] = float64(stats.Inserted)
	o.layer["sirendb.seal_p50_ms"] = quantile(sealMS, 0.5)
	o.layer["sirendb.seal_max_ms"] = maxOf(sealMS)
	o.layer["catalog.refresh_p50_ms"] = quantile(refreshMS, 0.5)
	o.layer["catalog.refresh_p95_ms"] = quantile(refreshMS, 0.95)
	if jobsIn > 0 {
		o.layer["catalog.reconsolidated_frac"] = float64(reconsolidated) / float64(jobsIn)
	}
	if tr != nil {
		sends := durations(tr.snapshot(), "wire.send")
		o.layer["wire.send_p50_us"] = quantile(sends, 0.5) / 1e3
		o.layer["wire.send_p99_us"] = quantile(sends, 0.99) / 1e3
	}
	return o, nil
}

// drain waits until the receiver has stored everything that reached it and
// returns the rows inserted. Datagrams the kernel dropped never arrive, so
// the wait also ends once nothing has been stored for drainIdle.
func (st *liveState) drain(rcv *receiver.Receiver) int64 {
	last, idleSince, deadline := int64(-1), time.Now(), time.Now().Add(drainMax)
	for time.Now().Before(deadline) {
		s := rcv.Stats().Snapshot()
		if s.Inserted+s.Dropped+s.Malformed+s.InsertLost >= int64(st.n) {
			return s.Inserted
		}
		if s.Inserted != last {
			last, idleSince = s.Inserted, time.Now()
		} else if time.Since(idleSince) > drainIdle {
			return s.Inserted
		}
		time.Sleep(time.Millisecond)
	}
	return rcv.Stats().Snapshot().Inserted
}

// probe times wire.Parse over the offered stream.
func (st *liveState) probe(tr *tracer, layer map[string]float64) error {
	sp := tr.begin("wire.parse", 0)
	for _, d := range st.s.dgs[:st.n] {
		if _, err := wire.Parse(d); err != nil {
			return err
		}
	}
	layer["wire.parse_ns"] = float64(sp.end().Nanoseconds()) / float64(st.n)
	return nil
}
