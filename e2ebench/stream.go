package main

import (
	"crypto/sha256"
	"fmt"

	"siren/internal/campaign"
	"siren/internal/postprocess"
	"siren/internal/wire"
)

// baseScale is the campaign scale every workload records (280 jobs, 36,910
// processes and 113,652 datagrams at seed 1); live records a larger one when
// its offered rate times the run length needs more datagrams.
const baseScale = 0.02

// datagramsPerScale under-estimates the stream length per unit of scale
// (5.68M at seed 1), so a scale derived from it always records enough.
const datagramsPerScale = 5.4e6

// stream is a campaign's datagram stream exactly as the collector sent it.
// With one campaign worker it is byte-identical from run to run, so it is the
// benchmark's seeded input: the program under test receives only these bytes.
type stream struct {
	dgs   [][]byte
	bytes int64
	res   *campaign.Result
	sum   [sha256.Size]byte
}

// recorder is the wire.Transport campaign.Run sends into during set-up.
type recorder struct{ s *stream }

func (r recorder) Send(d []byte) error {
	r.s.dgs = append(r.s.dgs, append([]byte(nil), d...))
	r.s.bytes += int64(len(d))
	return nil
}

func (recorder) Close() error { return nil }

// record runs one seeded campaign with a single worker and keeps its stream.
func record(seed int64, scale float64) (*stream, error) {
	s := &stream{}
	res, err := campaign.Run(campaign.Config{Scale: scale, Seed: seed, Workers: 1, Transport: recorder{s}})
	if err != nil {
		return nil, fmt.Errorf("record campaign: %w", err)
	}
	s.res = res
	h := sha256.New()
	for _, d := range s.dgs {
		h.Write(d)
	}
	copy(s.sum[:], h.Sum(nil))
	return s, nil
}

// job is what freshness needs of one job in a stream prefix: how many
// datagrams it has and the index of its last one.
type job struct {
	count int
	last  int
}

// jobs indexes the first n datagrams by job.
func (s *stream) jobs(n int) map[string]job {
	out := make(map[string]job)
	for i, d := range s.dgs[:n] {
		id, _, ok := wire.PartitionFields(d)
		if !ok {
			continue
		}
		j := out[string(id)]
		j.count++
		j.last = i
		out[string(id)] = j
	}
	return out
}

// messages parses the first n datagrams. A datagram the collector sent that
// does not parse is a wire-layer defect and is returned as an error.
func (s *stream) messages(n int) ([]wire.Message, error) {
	out := make([]wire.Message, 0, n)
	for i, d := range s.dgs[:n] {
		m, err := wire.Parse(d)
		if err != nil {
			return nil, fmt.Errorf("datagram %d: %w", i, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// oracle is the byte-identical-report reference: consolidation of the parsed
// stream prefix in memory, rendered canonically.
func (s *stream) oracle(n int) ([]*postprocess.ProcessRecord, []byte, error) {
	msgs, err := s.messages(n)
	if err != nil {
		return nil, nil, err
	}
	recs, stats := postprocess.ConsolidateMessages(msgs)
	b, err := render(recs, stats)
	return recs, b, err
}
