package wire

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceReassemble is the map-keyed Reassemble the struct-keyed kernel
// replaced, kept verbatim (its string key inlined) as the semantic reference
// for the differential tests and FuzzReassemble.
func referenceReassemble(msgs []Message) []Record {
	type group struct {
		header   Header
		maxTotal int  // largest Total announced by any chunk
		mismatch bool // chunks disagreed on Total: two record versions mixed
		chunks   map[int][]byte
	}
	key := func(h Header) string {
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
	out := make([]Record, 0, len(keys))
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
		out = append(out, Record{Header: g.header, Content: content, Complete: complete})
	}
	return out
}

// diffReassemble fails unless Reassemble and the reference agree record for
// record: same order, headers, completeness and content bytes.
func diffReassemble(t *testing.T, msgs []Message) {
	t.Helper()
	got, want := Reassemble(msgs), referenceReassemble(msgs)
	if len(got) != len(want) {
		t.Fatalf("%d records, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Header != w.Header || g.Complete != w.Complete || !bytes.Equal(g.Content, w.Content) {
			t.Fatalf("record %d:\n got %+v complete=%v content=%q\nwant %+v complete=%v content=%q",
				i, g.Header, g.Complete, g.Content, w.Header, w.Complete, w.Content)
		}
	}
}

func TestReassembleMatchesReference(t *testing.T) {
	h := sampleHeader()
	chunks := func(h Header, content string) []Message { return Chunk(h, []byte(content), 100) }
	long := strings.Repeat("0123456789abcdef", 40)
	other := sampleHeader()
	other.Type = TypeModules

	cases := map[string]func() []Message{
		"single": func() []Message { return chunks(h, "one datagram") },
		"empty":  func() []Message { return chunks(h, "") },
		"in order": func() []Message {
			return chunks(h, long)
		},
		"reordered": func() []Message {
			msgs := chunks(h, long)
			rand.New(rand.NewSource(5)).Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
			return msgs
		},
		"interleaved records": func() []Message {
			a, b := chunks(h, long), chunks(other, long[:300])
			var msgs []Message
			for i := 0; i < len(a) || i < len(b); i++ {
				if i < len(b) {
					msgs = append(msgs, b[len(b)-1-i])
				}
				if i < len(a) {
					msgs = append(msgs, a[i])
				}
			}
			return msgs
		},
		"duplicate seq, last write wins": func() []Message {
			msgs := chunks(h, long)
			dup := msgs[1]
			dup.Content = []byte("re-sent")
			return append(msgs, dup)
		},
		"duplicate seq of a single chunk": func() []Message {
			a, b := chunks(h, "first"), chunks(h, "second")
			return append(a, b...)
		},
		"duplicate seq out of order": func() []Message {
			msgs := chunks(h, long)
			dup := msgs[0]
			dup.Content = []byte("late copy of chunk 0")
			return append([]Message{msgs[2], dup}, msgs...)
		},
		"total mismatch": func() []Message {
			short, grown := chunks(h, long[:250]), chunks(h, long)
			return append([]Message{short[0]}, append(grown, short[1:]...)...)
		},
		"lost first chunk": func() []Message {
			msgs := chunks(h, long)
			return msgs[1:]
		},
		"lost middle chunk": func() []Message {
			msgs := chunks(h, long)
			return append(msgs[:2:2], msgs[3:]...)
		},
		"hostile total": func() []Message {
			m := Message{Header: h, Content: []byte("x")}
			m.Seq, m.Total = 0, 2_000_000_000
			n := m
			n.Seq, n.Content = 7, []byte("y")
			return []Message{n, m}
		},
		"seq beyond total": func() []Message {
			m := Message{Header: h, Content: []byte("a")}
			m.Seq, m.Total = 3, 1
			return []Message{m}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) { diffReassemble(t, build()) })
	}
}
