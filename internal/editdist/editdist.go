// Package editdist implements string edit distances used by the SIREN
// fuzzy-hash comparison layer.
//
// Three families are provided:
//
//   - Levenshtein: insertions, deletions, substitutions, unit cost.
//   - Damerau–Levenshtein (optimal string alignment, OSA): Levenshtein plus
//     transposition of two adjacent characters, unit cost. This is the
//     distance the SIREN paper names for SSDeep digest comparison.
//   - Weighted: insert/delete cost 1, substitution cost 2 — the distance used
//     by the reference ssdeep implementation (a substitution is modelled as a
//     delete followed by an insert).
//
// All functions operate on byte strings because SSDeep digests are ASCII
// (base64 alphabet); multi-byte runes never occur in digests.
//
// Weighted runs once per characteristic per scored candidate on the
// identify path, so it is not a DP: it counts the longest common subsequence
// bit-parallel (Allison–Dix, in Hyyrö's formulation), one machine word per
// 64 bytes of the shorter string. A spamsum signature (at most 64 bytes)
// fits one word, so a comparison is one pass of a few word operations per
// byte of the longer string, with the match masks on the stack. The
// Levenshtein and Damerau–Levenshtein DPs keep their rolling rows on the
// stack for inputs shorter than stackRow, and the n-gram gate packs grams
// into stack arrays instead of building a map.
package editdist

import "math/bits"

// stackRow bounds the inner DP dimension served from the stack. Spamsum
// signatures are ≤64 bytes; anything longer falls back to the heap.
const stackRow = 72

// Levenshtein returns the classic edit distance between a and b: the minimum
// number of single-byte insertions, deletions, or substitutions required to
// transform a into b.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Keep the shorter string in the inner dimension to bound memory.
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
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// row serves a length-n work row from the caller's stack buffer when it
// fits, from the heap otherwise.
func row(buf *[stackRow]int, n int) []int {
	if n <= stackRow {
		return buf[:n]
	}
	return make([]int, n)
}

// DamerauLevenshtein returns the optimal-string-alignment variant of the
// Damerau–Levenshtein distance between a and b: the minimum number of
// insertions, deletions, substitutions, or transpositions of two adjacent
// bytes, where no substring is edited more than once.
func DamerauLevenshtein(a, b string) int {
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
	// Three rolling rows: i-2, i-1, i.
	var buf2, buf1, buf0 [stackRow]int
	row2, row1, row0 := row(&buf2, len(b)+1), row(&buf1, len(b)+1), row(&buf0, len(b)+1)
	for j := 0; j <= len(b); j++ {
		row1[j] = j
	}
	for i := 1; i <= len(a); i++ {
		row0[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			d := min3(row1[j]+1, row0[j-1]+1, row1[j-1]+cost)
			if i > 1 && j > 1 && ca == b[j-2] && a[i-2] == b[j-1] {
				if t := row2[j-2] + 1; t < d {
					d = t
				}
			}
			row0[j] = d
		}
		row2, row1, row0 = row1, row0, row2
	}
	return row1[len(b)]
}

// Weighted returns the edit distance with insert and delete cost 1 and
// substitution cost 2, matching the reference ssdeep edit_distn weights.
// With these weights a substitution never beats the equivalent
// delete-then-insert, so the distance equals len(a)+len(b)-2*LCS(a,b), which
// is how it is computed.
func Weighted(a, b string) int {
	if a == b {
		return 0
	}
	return len(a) + len(b) - 2*lcsLength(a, b)
}

// lcsLength returns the length of the longest common subsequence of a and b.
//
// Bit i of the state v stands for byte i of the shorter string b: once a
// prefix of the longer string a is consumed, the cleared bits count the LCS
// of that prefix and b. Per byte c of a, with peq[c] the positions where b
// holds c:
//
//	u = v & peq[c]
//	v = (v + u) | (v - u)
//
// Bits past len(b) never match, so v - u keeps them set and the count
// needs no mask. Up to 64 bytes v is one word and peq sits on the stack;
// this loop is about three times faster than the general one below. Beyond
// that v spans ⌈len(b)/64⌉ words: the addition carries from word to word,
// the subtraction never borrows because u ⊆ v.
func lcsLength(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return 0
	}
	if len(b) <= 64 {
		var peq [256]uint64
		for i := 0; i < len(b); i++ {
			peq[b[i]] |= 1 << i
		}
		v := ^uint64(0)
		for i := 0; i < len(a); i++ {
			u := v & peq[a[i]]
			v = (v + u) | (v - u)
		}
		return bits.OnesCount64(^v)
	}
	w := (len(b) + 63) / 64
	peq, v := make([]uint64, 256*w), make([]uint64, w)
	for i := 0; i < len(b); i++ {
		peq[int(b[i])*w+i/64] |= 1 << (i % 64)
	}
	for k := range v {
		v[k] = ^uint64(0)
	}
	for i := 0; i < len(a); i++ {
		pm := peq[int(a[i])*w:][:w]
		var carry uint64
		for k, x := range v {
			u := x & pm[k]
			var sum uint64
			sum, carry = bits.Add64(x, u, carry)
			v[k] = sum | (x - u)
		}
	}
	n := 0
	for _, x := range v {
		n += bits.OnesCount64(^x)
	}
	return n
}

// LongestCommonSubstring returns the length of the longest contiguous
// substring common to a and b.
func LongestCommonSubstring(a, b string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	var prevBuf, curBuf [stackRow]int
	prev, cur := row(&prevBuf, len(b)+1), row(&curBuf, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			if ca == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// HasCommonSubstring reports whether a and b share a contiguous substring of
// at least n bytes. It is the gate the ssdeep comparison applies (n = 7,
// the rolling-hash window) before computing an edit distance, to suppress
// coincidental low-distance matches between short digests.
//
// For digest-sized inputs with n ≤ 8 (the ssdeep gate is n = 7) the grams
// pack into uint64s on the stack and the probe is a linear scan — no
// allocation, and for ≤64-byte signatures the quadratic scan is cheaper
// than hashing. Longer inputs fall back to a map, O(len(a)+len(b))
// expected time.
func HasCommonSubstring(a, b string, n int) bool {
	if n <= 0 {
		return true
	}
	if len(a) < n || len(b) < n {
		return false
	}
	if len(b) < len(a) {
		a, b = b, a // index the smaller side
	}
	if n <= 8 && len(a)-n+1 <= stackRow {
		var gramBuf [stackRow]uint64
		mask := ^uint64(0) >> (64 - 8*uint(n))
		var g uint64
		for i := 0; i < len(a); i++ {
			g = g<<8 | uint64(a[i])
			if i >= n-1 {
				gramBuf[i-(n-1)] = g & mask
			}
		}
		grams := gramBuf[:len(a)-n+1]
		g = 0
		for i := 0; i < len(b); i++ {
			g = g<<8 | uint64(b[i])
			if i < n-1 {
				continue
			}
			probe := g & mask
			for _, have := range grams {
				if have == probe {
					return true
				}
			}
		}
		return false
	}
	grams := make(map[string]struct{}, len(a)-n+1)
	for i := 0; i+n <= len(a); i++ {
		grams[a[i:i+n]] = struct{}{}
	}
	for i := 0; i+n <= len(b); i++ {
		if _, ok := grams[b[i:i+n]]; ok {
			return true
		}
	}
	return false
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
