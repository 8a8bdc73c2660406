package editdist

import (
	"math/rand"
	"strings"
	"testing"
)

// weightedDP is the quadratic DP Weighted replaced, kept verbatim as the
// oracle the bit-parallel kernel is checked against.
func weightedDP(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	var prevBuf, curBuf [stackRow]int
	prev, cur := row(&prevBuf, len(b)+1), row(&curBuf, len(b)+1)
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 2
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// randomOver draws n bytes from an alphabet of size k: bytes 0..k-1, or the
// base64 digest alphabet for k = 64. k = 2 and 4 give long runs of matches
// (long carry chains through the addition), 256 covers every byte.
func randomOver(rng *rand.Rand, k, n int) string {
	const b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if k == 64 {
			sb.WriteByte(b64[rng.Intn(64)])
		} else {
			sb.WriteByte(byte(rng.Intn(k)))
		}
	}
	return sb.String()
}

// TestWeightedMatchesDP diffs the bit-parallel kernel against the DP over
// lengths 0–130, which crosses the one-word boundary at 64 and the two-word
// boundary at 128, on small, base64 and full-byte alphabets, including
// equal strings and an empty side.
func TestWeightedMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(a, b string) {
		t.Helper()
		if got, want := Weighted(a, b), weightedDP(a, b); got != want {
			t.Fatalf("Weighted(%q,%q) = %d, DP = %d", a, b, got, want)
		}
	}
	for _, k := range []int{2, 4, 64, 256} {
		for la := 0; la <= 130; la++ {
			a := randomOver(rng, k, la)
			check(a, a)
			check(a, "")
			check("", a)
			for i := 0; i < 4; i++ {
				b := randomOver(rng, k, rng.Intn(131))
				check(a, b)
				check(b, a)
			}
			// A related pair: a with a few bytes edited, so the LCS is
			// long and the carry runs across word boundaries.
			m := []byte(a)
			for i := 0; i < len(m)/8; i++ {
				m[rng.Intn(len(m))] = randomOver(rng, k, 1)[0]
			}
			check(a, string(m))
		}
	}
}

// FuzzWeighted diffs the bit-parallel kernel against the DP on arbitrary
// byte strings.
func FuzzWeighted(f *testing.F) {
	f.Add("", "")
	f.Add("abc", "")
	f.Add("kitten", "sitting")
	f.Add(strings.Repeat("a", 64), strings.Repeat("a", 65))
	f.Add(strings.Repeat("ab", 70), strings.Repeat("ba", 64))
	f.Add("\x00\xff\x00", "\xff\x00\xff")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 300 || len(b) > 300 {
			return // the DP oracle is quadratic
		}
		if got, want := Weighted(a, b), weightedDP(a, b); got != want {
			t.Fatalf("Weighted(%q,%q) = %d, DP = %d", a, b, got, want)
		}
	})
}
