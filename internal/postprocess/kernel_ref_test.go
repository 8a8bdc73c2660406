package postprocess

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"siren/internal/campaign"
	"siren/internal/pyenv"
	"siren/internal/wire"
)

// referenceReassemble is the map-keyed chunk reassembly consolidateChunk
// used before the struct-keyed wire.Reassemble (the wire package pins the
// two against each other too).
func referenceReassemble(msgs []wire.Message) []wire.Record {
	type group struct {
		header   wire.Header
		maxTotal int
		mismatch bool
		chunks   map[int][]byte
	}
	key := func(h wire.Header) string {
		return strings.Join([]string{h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host,
			strconv.FormatInt(h.Time, 10), h.Layer, h.Type}, "\x1f")
	}
	groups := make(map[string]*group)
	var keys []string
	for _, m := range msgs {
		k := key(m.Header)
		g, ok := groups[k]
		if !ok {
			g = &group{header: m.Header, maxTotal: m.Total, chunks: make(map[int][]byte)}
			groups[k] = g
			keys = append(keys, k)
		}
		if m.Total != g.maxTotal {
			g.mismatch = true
			if m.Total > g.maxTotal {
				g.maxTotal = m.Total
			}
		}
		g.chunks[m.Seq] = m.Content
	}
	out := make([]wire.Record, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		g.header.Total = g.maxTotal
		seqs := make([]int, 0, len(g.chunks))
		for s := range g.chunks {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		complete := !g.mismatch && len(seqs) == g.maxTotal &&
			seqs[0] == 0 && seqs[len(seqs)-1] == g.maxTotal-1
		var content []byte
		for _, s := range seqs {
			content = append(content, g.chunks[s]...)
		}
		out = append(out, wire.Record{Header: g.header, Content: content, Complete: complete})
	}
	return out
}

// referenceConsolidateChunk is the string-keyed consolidation kernel the
// allocation-lean consolidateChunk replaced, kept as its semantic
// reference. It shares applySelf/applyScript, whose METADATA decoding
// TestDecodeMetadataMatchesParseKV pins separately.
func referenceConsolidateChunk(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	records := referenceReassemble(msgs)
	nRecords = len(records)

	identity := func(h wire.Header) string {
		return strings.Join([]string{h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host}, "\x1f")
	}
	groups := make(map[string][]wire.Record)
	var order []string
	for _, rec := range records {
		k := identity(rec.Header)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec)
	}

	for _, k := range order {
		recs := groups[k]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Header.Time < recs[j].Header.Time })
		var p *ProcessRecord
		seen := make(map[string]bool)
		for _, rec := range recs {
			tk := rec.Header.Layer + ":" + rec.Header.Type
			if p == nil || seen[tk] {
				h := rec.Header
				p = &ProcessRecord{
					JobID: h.JobID, StepID: h.StepID, PID: h.PID,
					ExeHash: h.Hash, Host: h.Host, Time: h.Time,
				}
				out = append(out, p)
				seen = make(map[string]bool)
			}
			seen[tk] = true
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, tk)
			}
			content := string(rec.Content)
			if rec.Header.Layer == wire.LayerScript {
				applyScript(p, rec.Header.Type, content)
				continue
			}
			applySelf(p, rec.Header.Type, content)
		}
	}
	for _, p := range out {
		if p.Category == "python" && len(p.Maps) > 0 {
			p.Imports = pyenv.ExtractImports(p.Maps)
		}
	}
	return out, nRecords
}

type messageSink struct{ msgs []wire.Message }

func (s *messageSink) Send(d []byte) error {
	m, err := wire.Parse(d)
	if err != nil {
		return err
	}
	s.msgs = append(s.msgs, m)
	return nil
}

func (*messageSink) Close() error { return nil }

// TestConsolidateChunkMatchesReference runs the kernel and its reference
// over one small campaign's stream, delivered intact and then damaged the
// ways UDP and hostile senders damage it, and requires the same records in
// the same order.
func TestConsolidateChunkMatchesReference(t *testing.T) {
	sink := &messageSink{}
	if _, err := campaign.Run(campaign.Config{Scale: 0.001, Seed: 3, Workers: 1, Transport: sink}); err != nil {
		t.Fatal(err)
	}
	clean := sink.msgs
	if len(clean) < 1000 {
		t.Fatalf("campaign produced only %d messages", len(clean))
	}
	damage := map[string]func(rng *rand.Rand, msgs []wire.Message) []wire.Message{
		"intact": func(_ *rand.Rand, msgs []wire.Message) []wire.Message { return msgs },
		"shuffled": func(rng *rand.Rand, msgs []wire.Message) []wire.Message {
			rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
			return msgs
		},
		"lost and duplicated": func(rng *rand.Rand, msgs []wire.Message) []wire.Message {
			var out []wire.Message
			for _, m := range msgs {
				switch rng.Intn(20) {
				case 0: // lost
				case 1:
					dup := m
					dup.Content = append([]byte("resent "), m.Content...)
					out = append(out, m, dup)
				default:
					out = append(out, m)
				}
			}
			return out
		},
		"total mismatch and hostile totals": func(rng *rand.Rand, msgs []wire.Message) []wire.Message {
			for i := range msgs {
				switch rng.Intn(30) {
				case 0:
					msgs[i].Total++
				case 1:
					msgs[i].Total = 2_000_000_000
				}
			}
			return msgs
		},
		"colliding layer tags": func(rng *rand.Rand, msgs []wire.Message) []wire.Message {
			// ("SELF:X", T) and ("SELF", "X:"+T) are different (Layer, Type)
			// pairs with the same "SELF:X:T" tag, so the second repeats the
			// first's tag and splits the process.
			var out []wire.Message
			for _, m := range msgs {
				out = append(out, m)
				if rng.Intn(4) == 0 {
					a, b := m, m
					a.Layer += ":X"
					b.Type = "X:" + b.Type
					out = append(out, a, b)
				}
			}
			return out
		},
		"reused pids and clock skew": func(rng *rand.Rand, msgs []wire.Message) []wire.Message {
			for i := range msgs {
				if rng.Intn(10) == 0 {
					msgs[i].PID = 1 + rng.Intn(3)
					msgs[i].Time += int64(rng.Intn(3)) - 1
				}
			}
			return msgs
		},
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			msgs := f(rand.New(rand.NewSource(11)), append([]wire.Message(nil), clean...))
			got, gotN := consolidateChunk(msgs)
			want, wantN := referenceConsolidateChunk(msgs)
			if gotN != wantN || len(got) != len(want) {
				t.Fatalf("%d records from %d logical, reference %d from %d", len(got), gotN, len(want), wantN)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}
