package heavyhitters

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashutil"
	"repro/internal/ldprand"
)

// SFPParams configures the sequence fragment puzzle for discovering
// frequent words over a lowercase alphabet without a candidate
// dictionary.
type SFPParams struct {
	Epsilon   float64 // per-user budget
	WordLen   int     // fixed word length L
	HashBits  int     // tag bits grouping fragments of the same word
	K         int     // heavy hitters to return
	Threshold float64 // minimum estimated fragment frequency (fraction); 0 means 1%
	Seed      uint64  // shared tag-hash seed
}

// Validate checks parameter ranges.
func (p SFPParams) Validate() error {
	switch {
	case p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0):
		return fmt.Errorf("heavyhitters: epsilon must be positive and finite")
	case p.WordLen < 1 || p.WordLen > 16:
		return fmt.Errorf("heavyhitters: WordLen must be in [1,16], got %d", p.WordLen)
	case p.HashBits < 1 || p.HashBits > 12:
		return fmt.Errorf("heavyhitters: HashBits must be in [1,12], got %d", p.HashBits)
	case p.K < 1:
		return fmt.Errorf("heavyhitters: K must be positive")
	case p.Threshold < 0 || p.Threshold >= 1:
		return fmt.Errorf("heavyhitters: Threshold must be in [0,1)")
	}
	return nil
}

func (p SFPParams) threshold() float64 {
	if p.Threshold == 0 {
		return 0.01
	}
	return p.Threshold
}

// tag returns the HashBits-bit tag of a word.
func (p SFPParams) tag(word string) uint64 {
	return hashutil.Hash64(p.Seed, []byte(word)) & ((1 << uint(p.HashBits)) - 1)
}

// fragmentValue encodes (tag, character) as one value of the fragment
// oracle's domain: tag·26 + letterIndex.
func (p SFPParams) fragmentValue(word string, pos int) (uint64, error) {
	ch := word[pos]
	if ch < 'a' || ch > 'z' {
		return 0, fmt.Errorf("heavyhitters: word %q has non a-z character", word)
	}
	return p.tag(word)*26 + uint64(ch-'a'), nil
}

// FindSFP discovers frequent words among the users' values. Users are
// split: half report one random fragment (position chosen uniformly,
// value = tag ⊕ character via OLH), half verify assembled candidates
// with a second OLH round. Returns up to K hits sorted by estimated
// count, values encoded as words via Hit-compatible structure below.
func FindSFP(params SFPParams, words []string, src ldprand.Source) ([]WordHit, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		src = ldprand.NewCrypto()
	}
	for _, w := range words {
		if len(w) != params.WordLen {
			return nil, fmt.Errorf("heavyhitters: word %q is not length %d", w, params.WordLen)
		}
		for i := 0; i < len(w); i++ {
			if w[i] < 'a' || w[i] > 'z' {
				return nil, fmt.Errorf("heavyhitters: word %q has non a-z character", w)
			}
		}
	}
	n := len(words)
	if n == 0 {
		return nil, nil
	}
	mech := NewLHMech(params.Epsilon)

	// Split users: fragment reporters per position, then verifiers.
	// Fragment group = first half, divided evenly among positions.
	half := n / 2
	fragReports := make([][]LHReport, params.WordLen)
	order := ldprand.Perm(src, n)
	var verifierIdx []int
	for u, w := range words {
		slot := order[u]
		if slot < half {
			pos := slot * params.WordLen / max(half, 1)
			fv, err := params.fragmentValue(w, pos)
			if err != nil {
				return nil, err
			}
			fragReports[pos] = append(fragReports[pos], mech.Privatize(fv, src))
		} else {
			verifierIdx = append(verifierIdx, u)
		}
	}

	// Per position, estimate all (tag, char) fragment counts and keep
	// characters above threshold for each tag.
	numTags := 1 << uint(params.HashBits)
	candidates := make([]uint64, numTags*26)
	for i := range candidates {
		candidates[i] = uint64(i)
	}
	// heavyChars[tag][pos] = characters surviving the threshold.
	heavyChars := make([][][]byte, numTags)
	for t := range heavyChars {
		heavyChars[t] = make([][]byte, params.WordLen)
	}
	for pos := 0; pos < params.WordLen; pos++ {
		reports := fragReports[pos]
		if len(reports) == 0 {
			continue
		}
		counts := mech.EstimateCounts(reports, candidates)
		minCount := params.threshold() * float64(len(reports))
		for i, c := range counts {
			if c >= minCount {
				tag := i / 26
				ch := byte('a' + i%26)
				heavyChars[tag][pos] = append(heavyChars[tag][pos], ch)
			}
		}
	}

	// Assemble candidate words per tag (cross product, capped), keeping
	// only words whose tag actually matches.
	const maxPerTag = 256
	var assembled []string
	for t := 0; t < numTags; t++ {
		partial := []string{""}
		complete := true
		for pos := 0; pos < params.WordLen; pos++ {
			chars := heavyChars[t][pos]
			if len(chars) == 0 {
				complete = false
				break
			}
			next := make([]string, 0, len(partial)*len(chars))
			for _, w := range partial {
				for _, ch := range chars {
					next = append(next, w+string(ch))
					if len(next) > maxPerTag {
						break
					}
				}
				if len(next) > maxPerTag {
					break
				}
			}
			partial = next
		}
		if !complete {
			continue
		}
		for _, w := range partial {
			if params.tag(w) == uint64(t) {
				assembled = append(assembled, w)
			}
		}
	}
	if len(assembled) == 0 {
		return nil, nil
	}
	sort.Strings(assembled)

	// Verification round: the second half of users reports its word
	// (hashed onto the assembled candidate list) via OLH; estimate
	// counts of each candidate and return the top K.
	wordIndex := make(map[string]uint64, len(assembled))
	for i, w := range assembled {
		wordIndex[w] = uint64(i)
	}
	verifyReports := make([]LHReport, 0, len(verifierIdx))
	// Words outside the candidate list map to a sentinel beyond the
	// candidate range, so they only contribute background noise.
	sentinel := uint64(len(assembled))
	for _, u := range verifierIdx {
		v, ok := wordIndex[words[u]]
		if !ok {
			v = sentinel
		}
		verifyReports = append(verifyReports, mech.Privatize(v, src))
	}
	candVals := make([]uint64, len(assembled))
	for i := range candVals {
		candVals[i] = uint64(i)
	}
	counts := mech.EstimateCounts(verifyReports, candVals)
	scale := float64(n) / float64(max(len(verifyReports), 1))
	hits := make([]WordHit, 0, len(assembled))
	for i, w := range assembled {
		if counts[i] <= 0 {
			continue
		}
		hits = append(hits, WordHit{Word: w, Count: counts[i] * scale})
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Count > hits[b].Count })
	if len(hits) > params.K {
		hits = hits[:params.K]
	}
	return hits, nil
}

// WordHit is one discovered word with its estimated count.
type WordHit struct {
	Word  string
	Count float64
}
