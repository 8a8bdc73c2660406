package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"debug/elf"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siren/internal/analysis"
	"siren/internal/catalog"
	"siren/internal/collector"
	"siren/internal/obs"
	"siren/internal/server"
	"siren/internal/sirendb"
	"siren/internal/ssdeep"
)

// The query workload is the recognition use case: a closed loop of
// queryClients clients over loopback HTTP against server.Serve, on a catalog
// built in set-up from the whole stream. Known queries send the six digests
// of a catalogued binary and hit the exact-signature table; unknown queries
// send the digests of a catalogued app executable with a seeded patch to its
// code, re-hashed by collector.ScanBinary, and expect the app's label. The
// mix is the stream's own (see prepare).
const (
	queryClients = 2
	// patchBytes is the length of the seeded patch written into .text.
	patchBytes = 48
	mixLen     = 1 << 14
)

type query struct {
	q     analysis.Digests
	label string
	known bool
}

type queryState struct {
	e     *env
	s     *stream
	db    *sirendb.DB
	cat   *catalog.Catalog
	url   string
	stop  func() error // shuts the server down
	all   []query
	mix   []int // indexes into all, the fixed request order
	nKnow int
	share float64 // known share of the mix
}

func setUpQuery(e *env) (state, [sha256.Size]byte, error) {
	s, err := record(e.seed, baseScale)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	path := filepath.Join(e.dir, "query", "siren.db")
	if err := buildStore(s, path); err != nil {
		return nil, s.sum, err
	}
	db, err := sirendb.OpenOptions(path, sirendb.Options{})
	if err != nil {
		return nil, s.sum, err
	}
	st := &queryState{e: e, s: s, db: db}
	st.cat = catalog.New(catalog.StoreSource(db), catalog.Options{})
	st.cat.Refresh()
	if err := st.prepare(); err != nil {
		return nil, s.sum, errors.Join(err, db.Close())
	}
	if st.url, st.stop, err = serve(server.New(st.cat)); err != nil {
		return nil, s.sum, errors.Join(err, db.Close())
	}
	return st, s.sum, nil
}

// buildStore writes the whole stream into a fresh store at path, seals it
// and closes it.
func buildStore(s *stream, path string) error {
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	msgs, err := s.messages(len(s.dgs))
	if err != nil {
		return err
	}
	db, err := sirendb.OpenOptions(path, sirendb.Options{})
	if err != nil {
		return err
	}
	for len(msgs) > 0 {
		k := min(len(msgs), 4096)
		if err := db.InsertBatch(msgs[:k]); err != nil {
			return errors.Join(err, db.Close())
		}
		msgs = msgs[k:]
	}
	if err := db.Seal(); err != nil {
		return errors.Join(err, db.Close())
	}
	return db.Close()
}

// prepare builds the query set and the seeded request order. The mix is
// taken from the recorded stream: a user execution whose file digest ran
// earlier in the stream is a repeat the catalog knows, so the known share is
// the share of user executions that are repeats, and known queries are drawn
// in proportion to how often their binary ran. The first execution of each
// binary is one the catalog has not seen; those are the unknown queries.
func (st *queryState) prepare() error {
	gen := st.cat.Generation()
	runs := make(map[string]int) // user executions per file digest
	total := 0
	for _, r := range gen.Dataset.Records {
		if r.Category == "user" && r.FileH != "" {
			runs[r.FileH]++
			total++
		}
	}
	if total == 0 {
		return errors.New("query: the stream has no user executions")
	}
	st.share = 1 - float64(len(runs))/float64(total)
	exes := make(map[string]bool)
	seen := make(map[string]bool)
	var weight []int // cumulative execution counts of the known queries
	// Known: one query per catalogued fingerprint, selected as the index
	// selects them.
	for _, r := range gen.Dataset.Records {
		label := analysis.DeriveLabel(r.Exe)
		if r.Category != "user" || r.FileH == "" || label == analysis.UnknownLabel || seen[r.FileH] {
			continue
		}
		seen[r.FileH] = true
		exes[r.Exe] = true
		st.all = append(st.all, query{analysis.RecordDigests(r), label, true})
		weight = append(weight, runs[r.FileH])
		if n := len(weight); n > 1 {
			weight[n-1] += weight[n-2]
		}
	}
	st.nKnow = len(st.all)
	// Unknown: each catalogued app executable, patched and re-scanned.
	rng := rand.New(rand.NewSource(st.e.seed))
	cat := st.s.res.Catalog
	for _, app := range cat.Apps {
		for _, v := range app.Variants {
			if !exes[v.Path] {
				continue
			}
			img, err := cat.FS.ReadFile(v.Path)
			if err != nil {
				return err
			}
			img, err = patchText(img, rng)
			if err != nil {
				return fmt.Errorf("%s: %w", v.Path, err)
			}
			rep, err := collector.ScanBinary(img)
			if err != nil {
				return fmt.Errorf("%s: %w", v.Path, err)
			}
			st.all = append(st.all, query{analysis.Digests{File: rep.FileH, Strings: rep.StringsH, Symbols: rep.SymbolsH}, app.Label, false})
		}
	}
	nUnknown := len(st.all) - st.nKnow
	if st.nKnow == 0 || nUnknown == 0 {
		return fmt.Errorf("query: %d known and %d unknown queries; need both", st.nKnow, nUnknown)
	}
	st.mix = make([]int, mixLen)
	for i := range st.mix {
		if rng.Float64() < st.share {
			st.mix[i] = sort.SearchInts(weight, 1+rng.Intn(weight[len(weight)-1]))
		} else {
			st.mix[i] = st.nKnow + rng.Intn(nUnknown)
		}
	}
	return nil
}

// patchText overwrites patchBytes of a copy of img's .text section at a
// seeded offset with seeded bytes, as a rebuild with a small code change
// would; the ELF structure stays intact.
func patchText(img []byte, rng *rand.Rand) ([]byte, error) {
	f, err := elf.NewFile(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	text := f.Section(".text")
	if text == nil || text.Size < 2*patchBytes {
		return nil, errors.New("no .text section to patch")
	}
	out := append([]byte(nil), img...)
	off := int(text.Offset) + rng.Intn(int(text.Size)-patchBytes)
	rng.Read(out[off : off+patchBytes])
	return out, nil
}

func (st *queryState) close() error { return errors.Join(st.stop(), st.db.Close()) }

func (st *queryState) measure(tr *tracer, _ *obs.Registry) (*outcome, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		lat      []float64
		known    []float64
		unknown  []float64
		failed   int64
		wrongTop int64
		wg       sync.WaitGroup
	)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(st.e.seconds)
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine, myKnown, myUnknown []float64
			var myFailed, myWrong int64
			for time.Now().Before(deadline) {
				q := st.all[st.mix[next.Add(1)%mixLen]]
				sp := tr.begin("server.identify", 0)
				resp, err := identify(client, st.url, q.q)
				d := float64(sp.end())
				mine = append(mine, d)
				switch {
				case err != nil:
					fmt.Fprintln(os.Stderr, "e2ebench: query:", err)
					myFailed++
				case len(resp.Rows) == 0 || resp.Rows[0].Label != q.label:
					myWrong++
				}
				if q.known {
					myKnown = append(myKnown, d)
				} else {
					myUnknown = append(myUnknown, d)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			known = append(known, myKnown...)
			unknown = append(unknown, myUnknown...)
			failed += myFailed
			wrongTop += myWrong
			mu.Unlock()
		}()
	}
	wg.Wait()
	o := &outcome{
		attempted: int64(len(lat)),
		failed:    failed + wrongTop,
		ops:       int64(len(lat)),
		done:      int64(len(lat)) - failed,
		cpu:       cpuTime() - cpu0,
		wall:      time.Since(t0),
		lat:       lat,
		layer:     map[string]float64{},
	}
	o.figures = []figure{
		{"identify_qps", float64(len(lat)) / o.wall.Seconds(), "1/s"},
		{"identify_p50_us", quantile(lat, 0.5) / 1e3, "us"},
		{"identify_p99_us", quantile(lat, 0.99) / 1e3, "us"},
		{"identify_known_p50_us", quantile(known, 0.5) / 1e3, "us"},
		{"identify_unknown_p50_us", quantile(unknown, 0.5) / 1e3, "us"},
		{"identify_top1_frac", 1 - float64(wrongTop+failed)/float64(len(lat)), "frac"},
		{"known_share", st.share, "frac"},
		{"catalog_fingerprints", float64(st.nKnow), "count"},
		{"unknown_queries", float64(len(st.all) - st.nKnow), "count"},
	}
	o.layer["server.overhead_us"] = quantile(lat, 0.5) / 1e3 // minus search p50 in probe
	return o, nil
}

// probe calls FingerprintIndex.Search directly with the same request order
// and attributes the rest of the HTTP latency to the server.
func (st *queryState) probe(tr *tracer, layer map[string]float64) error {
	backend, err := ssdeep.ParseBackend("")
	if err != nil {
		return err
	}
	ix := st.cat.Generation().Index
	var all, known, unknown []float64
	for _, i := range st.mix {
		q := st.all[i]
		sp := tr.begin("analysis.search", 0)
		ix.Search(q.q, server.DefaultTopK, backend)
		d := float64(sp.end())
		all = append(all, d)
		if q.known {
			known = append(known, d)
		} else {
			unknown = append(unknown, d)
		}
	}
	layer["analysis.search_known_us"] = quantile(known, 0.5) / 1e3
	layer["analysis.search_unknown_us"] = quantile(unknown, 0.5) / 1e3
	layer["server.overhead_us"] -= quantile(all, 0.5) / 1e3
	return nil
}

// serve runs srv on a loopback listener. It returns the identify URL and a
// stop function that shuts the server down and waits for Serve to return.
func serve(srv *server.Server) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String() + "/api/v1/identify", stop, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: queryClients},
	}
}

// identify posts one identify request and decodes the ranking.
func identify(c *http.Client, url string, q analysis.Digests) (*server.IdentifyResponse, error) {
	body, err := json.Marshal(server.IdentifyRequest{
		ModulesH: q.Modules, CompilersH: q.Compilers, ObjectsH: q.Objects,
		FileH: q.File, StringsH: q.Strings, SymbolsH: q.Symbols,
	})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read only
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("identify: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out server.IdentifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("identify: %w", err)
	}
	return &out, nil
}
