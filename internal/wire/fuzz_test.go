package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzWireParse: Parse must never panic and must round-trip what Encode
// produced, no matter how datagrams are mutated in flight.
func FuzzWireParse(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Add(Encode(Message{Header: Header{JobID: "9", PID: 3, Layer: LayerScript,
		Type: TypeFileH, Total: 1}, Content: []byte("3:abc:def")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		// Anything that parses must re-encode to something that parses to
		// the same message.
		m2, err := Parse(Encode(m))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.Header != m.Header || !bytes.Equal(m2.Content, m.Content) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", m, m2)
		}
	})
}

// FuzzReassemble feeds Reassemble with parsed datagrams (one per line of the
// fuzz input) plus a chunked-and-reversed version of the raw input, and
// checks the structural invariants: no panic, content bounded by the sum of
// chunk payloads, Complete records reproducing the chunked content exactly,
// and record-for-record agreement with the map-keyed reference
// implementation (referenceReassemble). The giant-TOT seed pins the hostile-Total fix — Reassemble must
// walk the chunks that arrived, not the announced range, or this seed alone
// costs two billion iterations.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"), uint8(16))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=2000000000|CONTENT=x"), uint8(0))
	two := Encode(Message{Header: sampleHeader(), Content: []byte("first")})
	two = append(two, '\n')
	two = append(two, Encode(Message{Header: sampleHeader(), Content: []byte("second")})...)
	f.Add(two, uint8(4))
	f.Add([]byte("not a datagram\nat all"), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, room uint8) {
		// Arbitrary parsed datagrams, including Total mismatches and gaps.
		var msgs []Message
		var payload int
		for _, line := range bytes.Split(data, []byte("\n")) {
			m, err := Parse(line)
			if err != nil {
				continue
			}
			msgs = append(msgs, m)
			payload += len(m.Content)
		}
		diffReassemble(t, msgs)
		for _, r := range Reassemble(msgs) {
			if len(r.Content) > payload {
				t.Fatalf("record content %d bytes exceeds %d bytes of chunk payload", len(r.Content), payload)
			}
			if r.Complete && r.Header.Total < 1 {
				t.Fatalf("complete record with Total %d", r.Header.Total)
			}
		}

		// Chunk/Reassemble round trip: chunks delivered in reverse order
		// must reassemble to exactly one Complete record with the original
		// content.
		chunks := Chunk(sampleHeader(), data, 64+int(room))
		for i, j := 0, len(chunks)-1; i < j; i, j = i+1, j-1 {
			chunks[i], chunks[j] = chunks[j], chunks[i]
		}
		diffReassemble(t, chunks)
		recs := Reassemble(chunks)
		if len(recs) != 1 {
			t.Fatalf("chunked input reassembled to %d records", len(recs))
		}
		if !recs[0].Complete {
			t.Fatalf("lossless chunk delivery marked incomplete: %+v", recs[0].Header)
		}
		if !bytes.Equal(recs[0].Content, data) {
			t.Fatalf("chunk round trip lost content: %d bytes in, %d bytes out", len(data), len(recs[0].Content))
		}
	})
}

// TestParseSurvivesRandomMutations complements the fuzz target for plain
// `go test` runs: flip random bytes of valid datagrams and require no panic
// and consistent accept/reject behaviour.
func TestParseSurvivesRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := Encode(Message{Header: sampleHeader(), Content: []byte("the payload, with | separators = and\nnewlines")})
	for i := 0; i < 5000; i++ {
		mutated := append([]byte(nil), base...)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		m, err := Parse(mutated)
		if err != nil {
			continue
		}
		// Accepted: must survive a re-encode cycle.
		if _, err := Parse(Encode(m)); err != nil {
			t.Fatalf("accepted datagram failed round trip: %q", mutated)
		}
	}
}

// TestReassembleHostileTotal pins the DoS fix outside the fuzzer: one valid
// datagram announcing two billion chunks must reassemble in the time of one.
func TestReassembleHostileTotal(t *testing.T) {
	h := sampleHeader()
	h.Seq, h.Total = 0, 2_000_000_000
	recs := Reassemble([]Message{{Header: h, Content: []byte("x")}})
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Complete {
		t.Fatal("1 of 2000000000 chunks marked Complete")
	}
	if string(recs[0].Content) != "x" {
		t.Fatalf("partial content %q", recs[0].Content)
	}
	if recs[0].Header.Total != 2_000_000_000 {
		t.Fatalf("Total rewritten to %d", recs[0].Header.Total)
	}
}
