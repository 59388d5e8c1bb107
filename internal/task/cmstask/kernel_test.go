package cmstask

// The packed CMS fold against its definition: the per-cell debias
// expression applied one unpacked coordinate at a time, which is the
// loop Fold ran before it kept reports packed.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"testing"

	"repro/internal/binenc"
	"repro/internal/bitvec"
	"repro/internal/cms"
	"repro/internal/ldprand"
	"repro/internal/task"
)

// refFoldCMS is the unpacked, branchy fold: the reference
// implementation's expression, cell by cell.
func refFoldCMS(rows [][]float64, r cms.Report, cEps float64) {
	k := float64(len(rows))
	for i := 0; i < r.Bits.Len(); i++ {
		v := -1.0
		if r.Bits.Get(i) {
			v = 1
		}
		rows[r.Row][i] += k * (cEps/2*v + 0.5)
	}
}

func kernelConfig(width, hashes int) task.Config {
	return task.Config{Task: task.TypeSketch, Mechanism: MechanismCMS, Epsilon: 2, Width: width, Hashes: hashes, SketchSeed: 42}
}

// encodeCMSBinary lays r out as Client.ReportBinary does.
func encodeCMSBinary(t testing.TB, r cms.Report) []byte {
	t.Helper()
	packed, err := r.Bits.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := binenc.NewWriter()
	defer w.Release()
	w.Byte(binaryEnvelopeVersion)
	w.String(MechanismCMS)
	w.Varint(int64(r.Row))
	w.Blob(packed)
	return append([]byte(nil), w.Bytes()...)
}

// estimateItems reads the served estimates of word-0 … word-(n−1).
func estimateItems(t *testing.T, a *Aggregator, n int) []ItemCount {
	t.Helper()
	query := url.Values{}
	for i := 0; i < n; i++ {
		query.Add("item", fmt.Sprintf("word-%d", i))
	}
	raw, err := a.Estimate(query)
	if err != nil {
		t.Fatal(err)
	}
	var res EstimateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res.Items
}

func mustNew(t testing.TB, cfg task.Config) *Aggregator {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*Aggregator)
}

func TestKernelCMSFold(t *testing.T) {
	const hashes = 3
	// cms.Params refuses width 1; bitvec's TestKernelAdds covers the
	// one-bit row.
	for _, width := range []int{2, 63, 64, 65, 1000, 1024} {
		cfg := kernelConfig(width, hashes)
		params := cms.Params{Epsilon: cfg.Epsilon, Width: width, Hashes: hashes, Seed: cfg.SketchSeed}
		client, err := cms.NewClient(params, ldprand.NewSplitMix64(uint64(width)))
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, viaBinary := mustNew(t, cfg), mustNew(t, cfg)
		ref := make([][]float64, hashes)
		for j := range ref {
			ref[j] = make([]float64, width)
		}

		var reports []cms.Report
		for i := 0; i < 200; i++ {
			reports = append(reports, client.Report([]byte(fmt.Sprintf("word-%d", i%10))))
		}
		// Both end rows, with the patterns that stress the tail word:
		// all −1, all +1, only the last coordinate, all but the last.
		for _, row := range []int{0, hashes - 1} {
			for _, plus := range []func(i int) bool{
				func(int) bool { return false },
				func(int) bool { return true },
				func(i int) bool { return i == width-1 },
				func(i int) bool { return i != width-1 },
			} {
				bits := bitvec.New(width)
				for i := 0; i < width; i++ {
					bits.SetTo(i, plus(i))
				}
				reports = append(reports, cms.Report{Row: row, Bits: bits})
			}
		}

		for _, r := range reports {
			refFoldCMS(ref, r, viaJSON.cEps)
			raw, err := json.Marshal(Envelope{Mechanism: MechanismCMS, Row: r.Row, Bits: base64.StdEncoding.EncodeToString(unpackBits(r.Bits))})
			if err != nil {
				t.Fatal(err)
			}
			if err := viaJSON.Add(raw); err != nil {
				t.Fatal(err)
			}
			prepared, err := viaBinary.PrepareBinary(encodeCMSBinary(t, r))
			if err != nil {
				t.Fatal(err)
			}
			if err := viaBinary.Fold(prepared); err != nil {
				t.Fatal(err)
			}
		}

		for name, a := range map[string]*Aggregator{"json": viaJSON, "binary": viaBinary} {
			for j := range ref {
				for i, want := range ref[j] {
					if got := a.cm.Row(j)[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("width %d, %s: cell (%d,%d) = %v, want %v", width, name, j, i, got, want)
					}
				}
			}
			if a.Collected() != len(reports) {
				t.Fatalf("width %d, %s: collected %d, want %d", width, name, a.Collected(), len(reports))
			}
			// The count-mean estimate, written out over the reference
			// rows: (m/(m−1))·(mean over rows of the item's cell − n/m).
			for i, got := range estimateItems(t, a, 10) {
				item := []byte(got.Item)
				var sum float64
				for j := range ref {
					sum += ref[j][params.Position(j, item)]
				}
				m, n := float64(width), float64(len(reports))
				want := (m / (m - 1)) * (sum/hashes - n/m)
				if math.Float64bits(got.Count) != math.Float64bits(want) {
					t.Fatalf("width %d, %s: estimate(word-%d) = %v, want %v", width, name, i, got.Count, want)
				}
			}
		}
	}
}

// TestFoldAllocs pins the binary ingest of one CMS report at two
// allocations — the packed words and the boxed prepared value — where
// unpacking to bytes and indices took five.
func TestFoldAllocs(t *testing.T) {
	cfg := kernelConfig(1024, 128)
	a := mustNew(t, cfg)
	c, err := NewClient(cfg, ldprand.NewSplitMix64(3))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.ReportBinary([]byte("word-1"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		prepared, err := a.PrepareBinary(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Fold(prepared); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("PrepareBinary+Fold: %v allocs per CMS report, want at most 2", allocs)
	}
}

func BenchmarkCMSFold(b *testing.B) {
	for _, width := range []int{64, 1024} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			cfg := kernelConfig(width, 128)
			a := mustNew(b, cfg)
			c, err := NewClient(cfg, ldprand.NewSplitMix64(1))
			if err != nil {
				b.Fatal(err)
			}
			payloads := make([][]byte, 256)
			for i := range payloads {
				if payloads[i], err = c.ReportBinary([]byte(fmt.Sprintf("word-%d", i%10))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prepared, err := a.PrepareBinary(payloads[i%len(payloads)])
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Fold(prepared); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(width), "ns/cell")
		})
	}
}

// BenchmarkReportBinary measures one CMS client report on the binary
// wire at ldpload's sketch configuration (ε = 2, m = 1024, k = 128),
// from a seeded source and from crypto/rand (ldpclient's).
func BenchmarkReportBinary(b *testing.B) {
	for _, c := range []struct {
		name string
		src  ldprand.Source
	}{{"seeded", ldprand.NewSplitMix64(1)}, {"crypto", ldprand.NewCrypto()}} {
		b.Run(c.name, func(b *testing.B) {
			client, err := NewClient(kernelConfig(1024, 128), c.src)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.ReportBinary([]byte("word-1")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
