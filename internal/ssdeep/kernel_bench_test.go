package ssdeep

import (
	"math/rand"
	"testing"

	"siren/internal/editdist"
)

// relatedSignatures returns pairs of full-length (64-byte) first signatures
// at one block size: a random blob and a copy with a few scattered byte
// edits, the shape of a rebuilt or patched binary. Edit counts cycle so the
// pairs score from the high 60s to the 90s. Every pair passes the
// common-substring gate, as the candidates the identify index hands to
// scoring share a gram by construction.
func relatedSignatures(tb testing.TB, n int) [][2]string {
	tb.Helper()
	rng := rand.New(rand.NewSource(23))
	var pairs [][2]string
	for len(pairs) < n {
		data := randomBlob(rng, 12<<10)
		mut := append([]byte(nil), data...)
		for j := 0; j < 4<<(len(pairs)%4); j++ {
			mut[rng.Intn(len(mut))] ^= 0x5A
		}
		d1, err := HashDigest(data)
		if err != nil {
			tb.Fatal(err)
		}
		d2, err := HashDigest(mut)
		if err != nil {
			tb.Fatal(err)
		}
		p1, p2 := PrepareDigest(d1), PrepareDigest(d2)
		if p1.BlockSize != p2.BlockSize || len(p1.S1) != spamsumLength || len(p2.S1) != spamsumLength {
			continue
		}
		pairs = append(pairs, [2]string{p1.S1, p2.S1})
	}
	return pairs
}

var benchSink int

// BenchmarkScoreStrings is one signature comparison of the identify path:
// the common-substring gate, then (when it passes) the weighted distance
// and the rescale, at a block size above the small-block score cap. ns/op
// is per pair.
func BenchmarkScoreStrings(b *testing.B) {
	pairs := relatedSignatures(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		benchSink += scoreStrings(p[0], p[1], 192, BackendWeighted)
	}
}

// BenchmarkHasCommonSubstring64 is the gate alone over the same pairs.
func BenchmarkHasCommonSubstring64(b *testing.B) {
	pairs := relatedSignatures(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if editdist.HasCommonSubstring(p[0], p[1], rollingWindow) {
			benchSink++
		}
	}
}
