package ldprand_test

import (
	"fmt"
	"testing"

	"repro/internal/cms"
	"repro/internal/freq"
	"repro/internal/ldprand"
	"repro/internal/rappor"
)

// counting counts the words a client reads. It has no Fill method, so
// BernoulliWords reads it one Uint64 at a time.
type counting struct {
	src   ldprand.Source
	words int
}

func (c *counting) Uint64() uint64 {
	c.words++
	return c.src.Uint64()
}

// TestWordsPerReport pins how many random words each O(d) client reads
// per report over a fixed seeded run. A coin per coordinate read m + 1
// words per CMS report (1 025 at m = 1024), d per unary-encoding report
// and m per RAPPOR report (128 at m = 128). BernoulliWords reads about
// 7.3 per 64 lanes at a p whose digits do not end early, so CMS and UE
// read 118.6; RAPPOR's P = 1/2 and Q = 3/4 are decided after one and
// two digits, two words each: 6.
func TestWordsPerReport(t *testing.T) {
	const reports = 2000
	for _, c := range []struct {
		name   string
		report func(src ldprand.Source) func(i int)
		total  int     // words over the run, pinned
		mean   float64 // the bound the mean must stay under
	}{
		{"CMS eps=2 m=1024 k=128", func(src ldprand.Source) func(int) {
			client, err := cms.NewClient(cms.Params{Epsilon: 2, Width: 1024, Hashes: 128, Seed: 1}, src)
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) { client.Report([]byte(fmt.Sprint("word-", i%50))) }
		}, 237262, 130},
		{"SUE eps=2 d=1024", func(src ldprand.Source) func(int) {
			u := freq.NewSUE(2, 1024, src)
			return func(i int) { u.Privatize(i % 1024) }
		}, 237263, 130},
		{"OUE eps=2 d=1024", func(src ldprand.Source) func(int) {
			u := freq.NewOUE(2, 1024, src)
			return func(i int) { u.Privatize(i % 1024) }
		}, 237138, 130},
		{"RAPPOR default m=128", func(src ldprand.Source) func(int) {
			client, err := rappor.NewClient(rappor.DefaultParams(), []byte("secret"), src)
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) { client.Report(fmt.Sprint("value-", i%20)) }
		}, 12000, 8},
	} {
		src := &counting{src: ldprand.NewSplitMix64(77)}
		report := c.report(src)
		src.words = 0
		for i := 0; i < reports; i++ {
			report(i)
		}
		mean := float64(src.words) / reports
		t.Logf("%s: %d words, %.2f a report", c.name, src.words, mean)
		if mean > c.mean {
			t.Errorf("%s: %.2f words a report, want at most %v", c.name, mean, c.mean)
		}
		if src.words != c.total {
			t.Errorf("%s: %d words over %d reports, pinned at %d", c.name, src.words, reports, c.total)
		}
	}
}
