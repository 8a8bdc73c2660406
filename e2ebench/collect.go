package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"siren/internal/apps"
	"siren/internal/campaign"
	"siren/internal/collector"
	"siren/internal/ldso"
	"siren/internal/obs"
	"siren/internal/procfs"
	"siren/internal/ssdeep"
)

// The collect workload runs the campaign into a counting transport with no
// receiver: the per-process cost the siren.so preload must keep small, an
// ELF scan plus fuzzy hashes per exec. It runs whole campaigns back to back
// until the pass has lasted --seconds.
type collectState struct {
	e *env
	s *stream
}

func setUpCollect(e *env) (state, [sha256.Size]byte, error) {
	s, err := record(e.seed, baseScale)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return &collectState{e: e, s: s}, s.sum, nil
}

func (st *collectState) close() error { return nil }

// counter counts datagrams and bytes and times processes: with one campaign
// worker, a datagram from a process not seen before in the campaign marks
// the end of the previous process's collection.
type counter struct {
	n, bytes int64
	prev     []byte
	seen     map[string]bool
	last     time.Time
	gaps     []float64
}

var timeField = []byte("|TIME=")

func (c *counter) Send(d []byte) error {
	c.n++
	c.bytes += int64(len(d))
	id, _, ok := bytes.Cut(d, timeField)
	if !ok || bytes.Equal(id, c.prev) {
		return nil
	}
	c.prev = append(c.prev[:0], id...)
	if c.seen[string(id)] {
		return nil
	}
	c.seen[string(id)] = true
	now := time.Now()
	if !c.last.IsZero() {
		c.gaps = append(c.gaps, float64(now.Sub(c.last)))
	}
	c.last = now
	return nil
}

func (*counter) Close() error { return nil }

func (st *collectState) measure(tr *tracer, _ *obs.Registry) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var sent, bytesSent int64
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(st.e.seconds)
	for o.ops == 0 || time.Now().Before(deadline) {
		c := &counter{seen: make(map[string]bool)}
		sp := tr.begin("campaign.run", 0)
		res, err := campaign.Run(campaign.Config{Scale: baseScale, Seed: st.e.seed, Workers: 1, Transport: c})
		sp.end()
		if err != nil {
			return nil, err
		}
		o.ops += int64(res.ProcessesRun)
		o.lat = append(o.lat, c.gaps...)
		sent += c.n
		bytesSent += c.bytes
		if res.ProcessesRun != st.s.res.ProcessesRun || c.n != int64(len(st.s.dgs)) || c.bytes != st.s.bytes {
			fmt.Fprintf(os.Stderr, "e2ebench: collect: %d processes, %d datagrams, %d bytes; the recorder saw %d, %d, %d\n",
				res.ProcessesRun, c.n, c.bytes, st.s.res.ProcessesRun, len(st.s.dgs), st.s.bytes)
			o.failed += int64(res.ProcessesRun)
		}
	}
	o.cpu = cpuTime() - cpu0
	o.wall = time.Since(t0)
	o.attempted, o.done = o.ops, o.ops-o.failed
	o.figures = []figure{
		{"collect_us_per_proc", float64(o.wall.Microseconds()) / float64(o.ops), "us"},
		{"wire_bytes_per_proc", float64(bytesSent) / float64(o.ops), "B"},
		{"processes", float64(o.ops), "count"},
		{"datagrams", float64(sent), "count"},
		{"proc_p50_us", quantile(o.lat, 0.5) / 1e3, "us"},
		{"proc_p99_us", quantile(o.lat, 0.99) / 1e3, "us"},
	}
	return o, nil
}

// probe times the layers under the campaign by direct calls: the app
// installation (workload synthesis, so a toolchain speed-up is not read as
// a collector one), and ScanBinary and ssdeep.Hash over the installed app
// executables.
func (st *collectState) probe(tr *tracer, layer map[string]float64) error {
	var install []float64
	for i := 0; i < 3; i++ {
		sp := tr.begin("apps.install", 0)
		if _, err := apps.Install(procfs.NewFS(), ldso.NewCache(), campaign.DefaultStartTime); err != nil {
			return err
		}
		install = append(install, ms(sp.end()))
	}
	layer["apps.install_ms"] = quantile(install, 0.5)

	cat := st.s.res.Catalog
	var imgs [][]byte
	for _, app := range cat.Apps {
		for _, v := range app.Variants {
			img, err := cat.FS.ReadFile(v.Path)
			if err != nil {
				return err
			}
			imgs = append(imgs, img)
		}
	}
	var scan time.Duration
	for _, img := range imgs {
		sp := tr.begin("collector.scan", 0)
		if _, err := collector.ScanBinary(img); err != nil {
			return err
		}
		scan += sp.end()
	}
	layer["collector.scan_us"] = float64(scan.Microseconds()) / float64(len(imgs))

	var hashed int64
	var hash time.Duration
	for _, img := range imgs {
		sp := tr.begin("ssdeep.hash", 0)
		if _, err := ssdeep.Hash(img); err != nil {
			return err
		}
		hash += sp.end()
		hashed += int64(len(img))
	}
	layer["ssdeep.hash_mb_s"] = float64(hashed) / 1e6 / hash.Seconds()
	return nil
}
