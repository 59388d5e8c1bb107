package freq

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/ldprand"
)

// Digests of one fixed OLH corpus, generated at the commit before the
// fold kernels landed (f3a069f). The report digest pins the client
// side (hash values and the randomness stream Privatize consumes); the
// state digest pins the server side (the support vector every fold
// path must reach, as MarshalState writes it). A kernel change must
// hold both.
const (
	olhDigestReports = "7018ac7196d262979b570c92270094fb405ddb83a053a4192bf41f94722d268c"
	olhDigestState   = "cacf15dcf36ab76b780709e3363c4afb4f8506a541e14f33f5811e7b44aee604"
)

func TestOLHDigest(t *testing.T) {
	const d, n = 1024, 2000
	o := NewOLH(2, d, ldprand.NewSplitMix64(1))
	reports := sha256.New()
	var word [16]byte
	for i := 0; i < n; i++ {
		r := o.Privatize(i % d)
		binary.LittleEndian.PutUint64(word[:8], r.Seed)
		binary.LittleEndian.PutUint64(word[8:], uint64(r.Bucket))
		reports.Write(word[:])
		o.Aggregate(r)
	}
	if got := hex.EncodeToString(reports.Sum(nil)); got != olhDigestReports {
		t.Errorf("OLH report stream digest %s, want %s", got, olhDigestReports)
	}
	state, err := o.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(state)
	if got := hex.EncodeToString(sum[:]); got != olhDigestState {
		t.Errorf("OLH support state digest %s, want %s", got, olhDigestState)
	}
}
