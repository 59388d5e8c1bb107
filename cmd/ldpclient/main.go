// Command ldpclient is the user-side half of the collection pipeline:
// it reads raw records (one per line) from stdin, privatizes each one
// locally with crypto/rand randomness, and POSTs the randomized
// envelopes to an ldpd server. Raw values never leave the process.
//
// The -task flag selects the record type and mechanism family:
//
//	-task freq   (default) integer values in [0, domain); mechanisms
//	             GRR, SUE, OUE, SHE, THE, BLH, OLH, HRR, SS
//	-task mean   numeric records in [-1,1]: one float per line, or
//	             -dim comma-separated floats; mechanisms duchi, harmony
//	-task sketch arbitrary string items (words, URLs); mechanisms
//	             CMS, HCMS with -width/-hashes/-sketch-seed matching
//	             the server's collection
//	-task hh     unsigned integer items over a huge bit-string domain;
//	             drives the interactive PEM heavy-hitter protocol (see
//	             below)
//
// The hh task is interactive: the client reads all values up front,
// splits them into one user group per round, and then follows the
// server's protocol — poll GET .../frontier for the current round and
// prefix length, privatize each group member's prefix at that length,
// report with the round tag, and close the round via POST .../advance
// (disable with -hh-advance=false when the server auto-advances on an
// advance_quota). Epsilon, bits and levels all come from the frontier,
// so the only required flags are -server and -collection; when the
// protocol completes, the discovered heavy hitters are printed.
//
// With -batch > 1 the client buffers that many privatized envelopes
// and ships them in one POST /report/batch request, which is how a
// real deployment amortizes per-request overhead; batching changes the
// transport framing only, every value is still randomized
// independently before it is buffered.
//
// Envelopes travel in the binary wire format (Content-Type:
// application/x-ldp-binary), which every collection accepts.
//
// Requests that fail with a transport error or a retriable status
// (5xx, 429) are retried up to -retries times with exponential backoff
// and jitter. Every batch carries a random Idempotency-Key header, and
// the server deduplicates on it — even across a server restart — so a
// retry of a batch whose acknowledgment was lost in transit is
// answered from the record instead of double-counted. With -retries >
// 0 (the default), -batch 1 ships single-envelope batches through the
// same idempotent route; -retries 0 restores the bare POST /report
// path with no retrying.
//
// With -collection NAME the reports target /collections/NAME/report
// on a multi-survey server; without it they go to the flat routes,
// which serve the server's default collection.
//
// Usage:
//
//	seq 0 99 | ldpclient -server http://localhost:8080 -mechanism OLH -epsilon 1 -domain 128 -batch 50
//	seq 0 31 | ldpclient -collection study-a -mechanism GRR -epsilon 1 -domain 32
//	printf '0.23\n-0.7\n' | ldpclient -collection screen-time -task mean -epsilon 1
//	printf 'hello\nworld\n' | ldpclient -collection words -task sketch -epsilon 2 -width 256 -hashes 16
//	seq 1000 4999 | ldpclient -collection new-words -task hh -batch 200
package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/task/cmstask"
	"repro/internal/task/hhtask"
	"repro/internal/task/meantask"
)

func main() {
	var (
		server     = flag.String("server", "http://localhost:8080", "ldpd base URL, or a comma-separated list of relay URLs to round-robin batches across")
		collection = flag.String("collection", "", "target collection (empty = the server's default collection via the flat routes)")
		taskName   = flag.String("task", task.TypeFreq, "task family: freq, mean, sketch, hh")
		mechanism  = flag.String("mechanism", "", "mechanism within the task family (default: OLH / duchi / CMS per task)")
		epsilon    = flag.Float64("epsilon", 1.0, "privacy budget per report")
		domain     = flag.Int("domain", 128, "freq: input domain size")
		dim        = flag.Int("dim", 1, "mean: record dimension (harmony; duchi is scalar)")
		width      = flag.Int("width", 1024, "sketch: counters per hash row (power of two for HCMS)")
		hashes     = flag.Int("hashes", 64, "sketch: number of hash rows")
		sketchSeed = flag.Uint64("sketch-seed", 0, "sketch: shared hash seed (must match the collection)")
		batch      = flag.Int("batch", 1, "envelopes per request (1 = POST /report per value; oversized batches auto-flush early to fit the server's body cap)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		retries    = flag.Int("retries", 3, "retry attempts per request on transport errors and 5xx/429 responses (idempotent: every batch carries a dedup key; 0 disables retrying and sends -batch 1 via bare POST /report)")
		hhAdvance  = flag.Bool("hh-advance", true, "hh: close each round via POST .../advance after reporting its group (disable when the server auto-advances on advance_quota)")
	)
	flag.Parse()
	if *batch < 1 {
		fmt.Fprintln(os.Stderr, "ldpclient: -batch must be at least 1")
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "ldpclient: -retries must be non-negative")
		os.Exit(2)
	}
	var targets []string
	for _, t := range strings.Split(*server, ",") {
		t = strings.TrimSuffix(strings.TrimSpace(t), "/")
		if t == "" {
			continue
		}
		if *collection != "" {
			t += "/collections/" + url.PathEscape(*collection)
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "ldpclient: -server names no targets")
		os.Exit(2)
	}
	ring := &targetRing{targets: targets}
	httpClient := &http.Client{Timeout: *timeout}

	if *taskName == task.TypeHH {
		// The hh protocol is round-structured, not line-streamed: it
		// has its own driver.
		if err := runHH(httpClient, ring, *batch, *retries, *hhAdvance); err != nil {
			fmt.Fprintln(os.Stderr, "ldpclient:", err)
			os.Exit(1)
		}
		return
	}

	privatize, err := newPrivatizer(*taskName, *mechanism, *epsilon, *domain, *dim, *width, *hashes, *sketchSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpclient:", err)
		os.Exit(2)
	}

	// Flush early when the encoded batch would approach the server's
	// 8 MiB body cap — wide envelopes (SHE at large domains, CMS at
	// large widths) hit the byte limit long before a reasonable -batch
	// count does, and a whole oversize batch would be rejected outright.
	const maxBatchBody = 6 << 20

	sent, failed := 0, 0
	pending := make([][]byte, 0, *batch)
	pendingBytes := 0
	flush := func() {
		if len(pending) == 0 {
			return
		}
		n, err := postBatch(httpClient, ring.pick(), pending, *retries)
		sent += n
		failed += len(pending) - n
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldpclient: %v\n", err)
		}
		pending = pending[:0]
		pendingBytes = 0
	}

	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		env, err := privatize(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldpclient: skipping %q: %v\n", line, err)
			failed++
			continue
		}
		if *batch == 1 {
			if *retries > 0 {
				// A single-envelope batch rides the idempotent route, so
				// a lost acknowledgment can be retried without the risk
				// of double-counting the report.
				n, err := postBatch(httpClient, ring.pick(), [][]byte{env}, *retries)
				sent += n
				failed += 1 - n
				if err != nil {
					fmt.Fprintf(os.Stderr, "ldpclient: %v\n", err)
				}
				continue
			}
			if err := post(httpClient, ring.pick()+"/report", env); err != nil {
				fmt.Fprintf(os.Stderr, "ldpclient: %v\n", err)
				failed++
				continue
			}
			sent++
			continue
		}
		size := len(env) + 5 // plus its uvarint length prefix, at most
		if len(pending) > 0 && pendingBytes+size > maxBatchBody {
			flush()
		}
		pending = append(pending, env)
		pendingBytes += size
		if len(pending) == *batch {
			flush()
		}
	}
	flush()
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ldpclient: stdin:", err)
		os.Exit(1)
	}
	fmt.Printf("ldpclient: sent %d reports (%d failed) via %s ε=%g\n", sent, failed, *taskName, *epsilon)
	if failed > 0 {
		os.Exit(1)
	}
}

// targetRing rotates report batches across a fleet of relay (or
// aggregator) base URLs. Control-plane calls — frontier fetches and
// conditional advances — stick to the first target instead: in a relay
// topology every relay mirrors the same upstream frontier, so one
// consistent vantage point avoids chasing propagation skew between
// relays mid-round.
type targetRing struct {
	targets []string
	next    int
}

// pick returns the next target in rotation.
func (t *targetRing) pick() string {
	b := t.targets[t.next%len(t.targets)]
	t.next++
	return b
}

// first returns the stable control-plane target.
func (t *targetRing) first() string { return t.targets[0] }

// newPrivatizer builds the line → binary envelope function for the
// selected task family, resolving the per-task default mechanism.
func newPrivatizer(taskName, mechanism string, epsilon float64, domain, dim, width, hashes int, sketchSeed uint64) (func(line string) ([]byte, error), error) {
	switch taskName {
	case task.TypeFreq:
		if mechanism == "" {
			mechanism = core.MechanismOLH
		}
		client, err := core.NewClient(mechanism, core.PrivacyParams{Epsilon: epsilon, Domain: domain}, nil)
		if err != nil {
			return nil, err
		}
		return func(line string) ([]byte, error) {
			v, err := strconv.Atoi(line)
			if err != nil {
				return nil, err
			}
			return client.ReportBinary(v)
		}, nil
	case task.TypeMean:
		if mechanism == "" {
			mechanism = meantask.MechanismDuchi
			if dim > 1 {
				mechanism = meantask.MechanismHarmony
			}
		}
		client, err := meantask.NewClient(task.Config{Task: task.TypeMean, Mechanism: mechanism, Epsilon: epsilon, Dim: dim}, nil)
		if err != nil {
			return nil, err
		}
		return func(line string) ([]byte, error) {
			parts := strings.Split(line, ",")
			if len(parts) != client.Dim() {
				return nil, fmt.Errorf("record has %d values, want %d", len(parts), client.Dim())
			}
			x := make([]float64, len(parts))
			for i, p := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil {
					return nil, err
				}
				x[i] = v
			}
			return client.ReportBinary(x)
		}, nil
	case task.TypeSketch:
		if mechanism == "" {
			mechanism = cmstask.MechanismCMS
		}
		client, err := cmstask.NewClient(task.Config{
			Task: task.TypeSketch, Mechanism: mechanism, Epsilon: epsilon,
			Width: width, Hashes: hashes, SketchSeed: sketchSeed,
		}, nil)
		if err != nil {
			return nil, err
		}
		return func(line string) ([]byte, error) {
			return client.ReportBinary([]byte(line))
		}, nil
	default:
		return nil, fmt.Errorf("unknown task %q (have freq, mean, sketch, hh)", taskName)
	}
}

// runHH drives the interactive PEM heavy-hitter protocol end to end:
// values (one unsigned integer per line on stdin) are split into one
// user group per round, and each round's group is privatized against
// the frontier the server currently publishes. Because the frontier is
// refetched before every round, the driver picks the protocol up
// wherever the server stands — including a server that restarted from
// a mid-protocol checkpoint.
func runHH(c *http.Client, ring *targetRing, batchSize, retries int, advance bool) error {
	var values []uint64
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return fmt.Errorf("hh value %q: %w", line, err)
		}
		values = append(values, v)
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	if len(values) == 0 {
		return fmt.Errorf("no values on stdin")
	}

	f, err := fetchFrontier(c, ring.first())
	if err != nil {
		return err
	}
	n, sent, failed := len(values), 0, 0
	// reportRound privatizes users against round and ships them in
	// batches. When a batch bounces with 409 the round moved mid-upload:
	// the refused batch plus the not-yet-reported tail have spent no
	// budget, so they come back as carry for the caller to re-privatize
	// against the refetched frontier (a report re-randomized for the new
	// round is a fresh ε-spend of the same single budget, since the stale
	// one was never aggregated).
	reportRound := func(reporter *hhtask.Client, users []uint64, round int) (carry []uint64) {
		pending := make([][]byte, 0, min(batchSize, len(users)))
		pendingUsers := make([]uint64, 0, min(batchSize, len(users)))
		flush := func(tail []uint64) []uint64 {
			if len(pending) == 0 {
				return nil
			}
			got, err := postBatch(c, ring.pick(), pending, retries)
			if errors.Is(err, errStaleRound) {
				left := append(append([]uint64(nil), pendingUsers...), tail...)
				fmt.Fprintf(os.Stderr, "ldpclient: round %d: %v; re-reporting %d users against the new round\n",
					round, err, len(left))
				return left
			}
			sent += got
			failed += len(pending) - got
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldpclient: round %d: %v\n", round, err)
			}
			pending, pendingUsers = pending[:0], pendingUsers[:0]
			return nil
		}
		for i, v := range users {
			env, err := reporter.ReportBinary(v, round)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ldpclient: skipping %d: %v\n", v, err)
				failed++
				continue
			}
			pending = append(pending, env)
			pendingUsers = append(pendingUsers, v)
			if len(pending) >= batchSize {
				if left := flush(users[i+1:]); left != nil {
					return left
				}
			}
		}
		return flush(nil)
	}
	var carry []uint64
	for !f.Done {
		reporter, err := hhtask.NewClient(f.Epsilon, f.Bits, f.Levels, nil)
		if err != nil {
			return fmt.Errorf("frontier %+v: %w", f, err)
		}
		// One disjoint user group per round — each user spends its full
		// ε on exactly one report in exactly one round — plus any users
		// carried out of a round that closed under them.
		group := values[f.Round*n/f.Levels : (f.Round+1)*n/f.Levels]
		if len(carry) > 0 {
			group = append(append([]uint64(nil), carry...), group...)
			carry = nil
		}
		prev := f.Round
		if carry = reportRound(reporter, group, prev); carry != nil {
			// The round closed mid-upload; pick up the new round and
			// fold the unspent users into its group.
			if f, err = fetchFrontier(c, ring.first()); err != nil {
				return err
			}
			if !f.Done && f.Round == prev {
				return fmt.Errorf("server refused round-%d reports as stale but still publishes round %d", prev, prev)
			}
			continue
		}
		fmt.Printf("ldpclient: round %d/%d: reported %d users at prefix length %d\n",
			prev+1, f.Levels, len(group), f.PrefixLen)
		if advance {
			// Conditional on the round we reported into: if another
			// driver (or the server's quota) closed it first, the 409
			// is success for our purposes — the frontier refetch below
			// picks up the new round.
			if err := postAdvance(c, ring.first(), prev); err != nil {
				return fmt.Errorf("advance after round %d: %w", prev, err)
			}
		}
		if f, err = fetchFrontier(c, ring.first()); err != nil {
			return err
		}
		if !f.Done && f.Round == prev {
			return fmt.Errorf("round %d did not advance — enable -hh-advance or configure the collection's advance_quota", prev)
		}
	}
	if len(carry) > 0 {
		// The protocol completed before the carried users found a round
		// to report into; their budget is unspent but the survey is over.
		fmt.Fprintf(os.Stderr, "ldpclient: protocol completed before %d carried users could report\n", len(carry))
		failed += len(carry)
	}
	fmt.Printf("ldpclient: protocol done after %d rounds; sent %d reports (%d failed)\n", f.Levels, sent, failed)
	for _, h := range f.Hits {
		fmt.Printf("ldpclient: heavy hitter %d (count ≈ %.0f)\n", h.Value, h.Count)
	}
	if failed > 0 {
		return fmt.Errorf("%d reports failed", failed)
	}
	return nil
}

// fetchFrontier reads the collection's current hh frontier.
func fetchFrontier(c *http.Client, base string) (hhtask.Frontier, error) {
	resp, err := c.Get(base + "/frontier")
	if err != nil {
		return hhtask.Frontier{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return hhtask.Frontier{}, fmt.Errorf("frontier: server returned %s (reading body: %v)", resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return hhtask.Frontier{}, fmt.Errorf("frontier: server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	var fr core.FrontierResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		return hhtask.Frontier{}, fmt.Errorf("frontier: server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	var f hhtask.Frontier
	if err := json.Unmarshal(fr.Frontier, &f); err != nil {
		return hhtask.Frontier{}, fmt.Errorf("frontier payload: %w", err)
	}
	return f, nil
}

// postAdvance closes the given round, conditionally: the server
// advances only if the round is still current, so a round another
// driver already closed comes back 409 — which is not a failure here,
// just someone else finishing the job first.
func postAdvance(c *http.Client, base string, round int) error {
	body := fmt.Sprintf(`{"round":%d}`, round)
	resp, err := c.Post(base+"/advance", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	return nil
}

func post(c *http.Client, url string, env []byte) error {
	resp, err := c.Post(url, core.ContentTypeBinary, bytes.NewReader(env))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		// The body is the diagnostic ("unknown collection", "mechanism
		// mismatch", ...); the status line alone hides it.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	return nil
}

// postBatch ships one /report/batch request, retrying transport
// errors and retriable statuses (5xx, 429) up to `retries` times with
// exponential backoff, and returns how many envelopes the server
// accepted. Every attempt carries the same random Idempotency-Key, so
// a retry of a batch the server already processed (the acknowledgment
// was lost, not the request) is answered from the server's dedup
// record instead of aggregated twice.
func postBatch(c *http.Client, base string, batch [][]byte, retries int) (int, error) {
	w := binenc.NewWriter() // the body: a uvarint count, then the length-prefixed envelopes
	defer w.Release()
	w.Uvarint(uint64(len(batch)))
	for _, env := range batch {
		w.Blob(env)
	}
	body, id := w.Bytes(), newBatchID()
	for attempt := 0; ; attempt++ {
		n, retriable, err := postBatchOnce(c, base, id, body, len(batch))
		if err == nil || !retriable || attempt >= retries {
			return n, err
		}
		time.Sleep(backoff(attempt))
	}
}

// postBatchOnce is a single /report/batch attempt. retriable marks
// failures where the server's state is unknown or the condition is
// transient — exactly the cases a same-key retry resolves safely.
// When the response body is not the expected BatchResponse JSON (a
// 405, a proxy error page, ...) the error carries the HTTP status and
// a snippet of the body, which is what actually identifies the problem
// — not the decode failure.
func postBatchOnce(c *http.Client, base, id string, body []byte, batchLen int) (n int, retriable bool, err error) {
	req, err := http.NewRequest(http.MethodPost, base+"/report/batch", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", core.ContentTypeBinary)
	if id != "" {
		req.Header.Set("Idempotency-Key", id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, true, err
	}
	defer resp.Body.Close()
	// The cap only guards against a pathological non-ldpd responder; a
	// real BatchResponse fits even with a long joined rejection error,
	// so the accepted count is never lost to truncation.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, true, fmt.Errorf("server returned %s (reading body: %v)", resp.Status, err)
	}
	if resp.StatusCode >= http.StatusInternalServerError || resp.StatusCode == http.StatusTooManyRequests {
		return 0, true, fmt.Errorf("server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	var br core.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return 0, false, fmt.Errorf("server returned %s: %s", resp.Status, bodySnippet(raw))
	}
	if resp.StatusCode == http.StatusConflict {
		// The server 409s a batch only when it accepted none of it for
		// being round-stale (advances never land mid-batch), so the whole
		// batch is unspent budget the caller may re-privatize.
		return br.Accepted, false, fmt.Errorf("server returned %s: %s: %w", resp.Status, bodySnippet(raw), errStaleRound)
	}
	if resp.StatusCode != http.StatusAccepted {
		return br.Accepted, false, fmt.Errorf("server rejected %d of %d: %s", br.Rejected, batchLen, br.Error)
	}
	return br.Accepted, false, nil
}

// errStaleRound marks a batch the server refused whole with 409: the
// collection's round moved between the frontier fetch and the upload.
// None of the batch's users spent budget, so the hh driver re-privatizes
// them against the refetched frontier instead of counting them failed.
var errStaleRound = errors.New("round advanced mid-upload")

// newBatchID draws a fresh 128-bit Idempotency-Key. An empty string
// (randomness unavailable) sends the batch without deduplication —
// worse retry semantics, never a blocked upload.
func newBatchID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// backoff returns the sleep before retry number attempt+1: 250ms
// doubling per attempt, capped at 8s, with the upper half jittered so
// a fleet of clients retrying one outage does not re-arrive in step.
func backoff(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	d := 250 * time.Millisecond << uint(attempt)
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)+1))
}

// bodySnippet compresses a response body into one loggable line.
func bodySnippet(raw []byte) string {
	s := strings.Join(strings.Fields(string(raw)), " ")
	if s == "" {
		return "(empty body)"
	}
	const max = 200
	if len(s) > max {
		// Truncate, then drop any rune the cut split in half.
		s = strings.ToValidUTF8(s[:max], "") + "..."
	}
	return s
}
