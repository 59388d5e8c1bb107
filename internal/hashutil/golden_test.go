package hashutil

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenHash pins HashIntRange's output values. The integer hash
// is wire protocol — a client's report names a bucket the server must
// recompute, today and at every later journal replay — so the table in
// testdata was generated once, before the fold kernels, and a kernel
// change has to hold it.
func TestGoldenHash(t *testing.T) {
	f, err := os.Open("testdata/golden_hash.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var seed uint64
		var item, m, want int
		if _, err := fmt.Sscan(line, &seed, &item, &m, &want); err != nil {
			t.Fatalf("bad golden row %q: %v", line, err)
		}
		rows++
		if got := HashIntRange(seed, item, m); got != want {
			t.Errorf("HashIntRange(%d, %d, %d) = %d, want %d", seed, item, m, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows < 32 {
		t.Fatalf("golden table has %d rows, want at least 32", rows)
	}
}
