// Package bwa is the memory-bound aligner of Fig. 8: a single-end
// BWA-MEM-style read aligner [Li & Durbin 2009; Li 2013] — an FM-index over
// the Burrows-Wheeler transform of the reference, maximal-exact-match seeding
// via backward search, diagonal chaining and Smith-Waterman extension — run
// beside SNAP so that its instrumented op mix (FM-index rank probes, the
// random memory accesses, against Smith-Waterman cells) can be profiled
// against SNAP's. Persona's align stage runs SNAP only.
package bwa

// BuildSuffixArray computes the suffix array of text by prefix doubling with
// radix (counting) sorts — O(n log n) time, O(n) extra space. Suffixes that
// are proper prefixes of others sort first, matching the convention of an
// implicit smallest terminator.
func BuildSuffixArray(text []byte) []int32 {
	n := len(text)
	if n == 0 {
		return nil
	}
	sa := make([]int32, n)
	rank := make([]int32, n)
	newRank := make([]int32, n)
	order := make([]int32, n)
	cntSize := n + 1
	if cntSize < 256 {
		cntSize = 256
	}
	cnt := make([]int32, cntSize)

	// Initial counting sort by first byte.
	for i := 0; i < n; i++ {
		cnt[text[i]]++
	}
	for i := 1; i < 256; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := n - 1; i >= 0; i-- {
		cnt[text[i]]--
		sa[cnt[text[i]]] = int32(i)
	}
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank[sa[i]] = rank[sa[i-1]]
		if text[sa[i]] != text[sa[i-1]] {
			rank[sa[i]]++
		}
	}

	for k := 1; k < n; k <<= 1 {
		classes := int(rank[sa[n-1]]) + 1
		if classes == n {
			break
		}
		// Order by second key (rank at offset k): suffixes with no second
		// key (i >= n-k) are smallest and go first; the rest follow in the
		// current sa order shifted back by k (a stable bucket trick).
		p := 0
		for i := n - k; i < n; i++ {
			order[p] = int32(i)
			p++
		}
		for i := 0; i < n; i++ {
			if int(sa[i]) >= k {
				order[p] = sa[i] - int32(k)
				p++
			}
		}
		// Stable counting sort of order by first key.
		for i := 0; i < classes; i++ {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[order[i]]]++
		}
		for i := 1; i < classes; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			c := rank[order[i]]
			cnt[c]--
			sa[cnt[c]] = order[i]
		}
		// Recompute ranks over the refined order.
		newRank[sa[0]] = 0
		for i := 1; i < n; i++ {
			cur, prev := int(sa[i]), int(sa[i-1])
			newRank[sa[i]] = newRank[sa[i-1]]
			curSecond, prevSecond := int32(-1), int32(-1)
			if cur+k < n {
				curSecond = rank[cur+k]
			}
			if prev+k < n {
				prevSecond = rank[prev+k]
			}
			if rank[cur] != rank[prev] || curSecond != prevSecond {
				newRank[sa[i]]++
			}
		}
		rank, newRank = newRank, rank
	}
	return sa
}
