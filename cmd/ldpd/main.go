// Command ldpd runs an LDP aggregation server: clients POST privatized
// report envelopes to /report (or JSON arrays of envelopes to
// /report/batch), and analysts read debiased estimates from /estimate
// (the raw values never leave the clients). Ingestion is sharded
// across per-core oracles so heavy traffic does not serialize on one
// mutex.
//
// One server hosts many concurrent surveys of any registered task
// family: POST /collections creates a named collection with its own
// task type ("freq" frequency oracles, "mean" numeric means, "sketch"
// private count sketches, "hh" interactive heavy-hitter discovery),
// mechanism and privacy parameters, and
// /collections/{name}/report|estimate|status address it. The flat
// routes remain wired to the "default" collection (always a frequency
// survey), configured by the -mechanism/-epsilon/-domain flags.
//
// Phased tasks like "hh" run an interactive multi-round protocol: GET
// /collections/{name}/frontier publishes the current round's state
// (the prefix length to report and the surviving prefixes), clients
// report against it with a round tag, and POST
// /collections/{name}/advance — or an "advance_quota" in the creation
// body, which advances automatically every that-many reports — closes
// the round. Reports tagged with a stale round are answered 409 so the
// client refetches the frontier.
//
// With -state-dir set, every collection is checkpointed to a
// checksummed binary container (LDPSNAP5: a JSON header plus the
// task's binary state, in <name>.json for historical reasons) in that
// directory, atomically (write-temp-then-rename), every
// -checkpoint-interval, restored on
// startup, and flushed one final time on SIGINT/SIGTERM before the
// graceful shutdown completes. Between checkpoints, every acknowledged
// report batch is appended to a per-collection write-ahead journal and
// replayed on restart, so a crash at any moment loses nothing the
// server acknowledged; -journal-sync picks whether each append is
// fsync'd ("always", survives power loss) or left to the page cache
// ("none", survives process crashes only, far cheaper). Snapshots that
// fail their checksum at startup are set aside under a .corrupt suffix
// and every other collection is restored; so is a JSON checkpoint from
// before LDPSNAP5, which only an older build (commit 87453f2, run once
// on the state directory) can upgrade. Journal frames that are sound
// but cannot be applied are set aside the same way, never deleted.
// GET /healthz reports per-collection checkpoint failures and journal
// lag, turning 503 once -unhealthy-after consecutive checkpoints have
// failed.
//
// With -mode relay -upstream <url>, the process becomes a relay ingest
// node: it accepts the ordinary report routes, folds into its own
// sharded aggregator, and every -flush-interval cuts the accumulated
// state into a merged delta it ships to the upstream aggregation node
// over POST /collections/{name}/merge — durably (journal flush frames
// + an on-disk outbox) and exactly-once (per-delta idempotency keys).
// Collections are mirrored from the upstream; /estimate and /frontier
// proxy upstream, /status and /healthz additionally report the relay's
// flushing standing. N relays in front of one aggregation node scale
// ingest horizontally without changing any client.
//
// Usage:
//
//	ldpd -addr :8080 -mechanism OLH -epsilon 1.0 -domain 128 -shards 0 \
//	     -state-dir /var/lib/ldpd -checkpoint-interval 30s -journal-sync always
//	ldpd -addr :8081 -mode relay -upstream http://agg:8080 \
//	     -state-dir /var/lib/ldpd-relay -flush-interval 5s
//
// Report format (JSON), e.g. for GRR:
//
//	curl -X POST localhost:8080/report -d '{"mechanism":"GRR","value":3}'
//	curl -X POST localhost:8080/collections -d '{"name":"study-a","mechanism":"GRR","epsilon":1,"domain":32}'
//	curl -X POST localhost:8080/collections -d '{"name":"screen-time","task":"mean","mechanism":"duchi","epsilon":1}'
//	curl -X POST localhost:8080/collections -d '{"name":"words","task":"sketch","mechanism":"CMS","epsilon":2,"width":256,"hashes":16}'
//	curl -X POST localhost:8080/collections -d '{"name":"new-words","task":"hh","epsilon":2,"bits":16,"levels":4,"k":8,"advance_quota":500}'
//	curl -X POST localhost:8080/collections/study-a/report -d '{"mechanism":"GRR","value":3}'
//	curl localhost:8080/collections/study-a/estimate
//	curl 'localhost:8080/collections/words/estimate?item=hello&item=world'
//	curl localhost:8080/collections/new-words/frontier
//	curl -X POST localhost:8080/collections/new-words/advance
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/task/freqtask"

	// Task adapters register themselves with the task registry; every
	// family linked here is creatable via POST /collections and
	// restorable from snapshots.
	_ "repro/internal/task/cmstask"
	_ "repro/internal/task/hhtask"
	_ "repro/internal/task/meantask"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		mode        = flag.String("mode", "aggregate", "\"aggregate\" (terminal aggregation node) or \"relay\" (fold locally, flush merged deltas to -upstream)")
		upstream    = flag.String("upstream", "", "relay mode: base URL of the upstream aggregation node (e.g. http://agg:8080)")
		flushEvery  = flag.Duration("flush-interval", cluster.DefaultFlushInterval, "relay mode: how often to flush merged deltas upstream")
		mechanism   = flag.String("mechanism", core.MechanismOLH, "default collection's frequency oracle: "+strings.Join(freqtask.Mechanisms(), ", "))
		epsilon     = flag.Float64("epsilon", 1.0, "default collection's privacy budget per report")
		domain      = flag.Int("domain", 128, "default collection's input domain size")
		shards      = flag.Int("shards", 0, "aggregation shards per collection (0 = one per core)")
		stateDir    = flag.String("state-dir", "", "directory for per-collection snapshots (empty = memory only; required in relay mode)")
		checkpoint  = flag.Duration("checkpoint-interval", 30*time.Second, "how often to checkpoint collections to -state-dir")
		journalSync = flag.String("journal-sync", core.JournalSyncEvery, "write-ahead journal fsync policy: \"always\" (acknowledged reports survive power loss) or \"none\" (page-cache durability only)")
		unhealthy   = flag.Int("unhealthy-after", core.DefaultUnhealthyAfter, "consecutive checkpoint failures per collection before GET /healthz answers 503")
	)
	flag.Parse()
	if *journalSync != core.JournalSyncEvery && *journalSync != core.JournalSyncNone {
		fmt.Fprintf(os.Stderr, "ldpd: -journal-sync must be %q or %q, got %q\n", core.JournalSyncEvery, core.JournalSyncNone, *journalSync)
		os.Exit(2)
	}
	switch *mode {
	case "aggregate":
		if *upstream != "" {
			fmt.Fprintln(os.Stderr, "ldpd: -upstream is only meaningful with -mode relay")
			os.Exit(2)
		}
	case "relay":
		if *upstream == "" {
			fmt.Fprintln(os.Stderr, "ldpd: -mode relay requires -upstream")
			os.Exit(2)
		}
		if *stateDir == "" {
			// The relay's exactly-once story is journal + outbox; without
			// a state dir there is nowhere durable for either.
			fmt.Fprintln(os.Stderr, "ldpd: -mode relay requires -state-dir")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "ldpd: -mode must be \"aggregate\" or \"relay\", got %q\n", *mode)
		os.Exit(2)
	}
	if err := run(*addr, *mode, *upstream, *flushEvery, *mechanism, *epsilon, *domain, *shards, *stateDir, *checkpoint, *journalSync, *unhealthy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(addr, mode, upstream string, flushEvery time.Duration, mechanism string, epsilon float64, domain, shards int, stateDir string, checkpointEvery time.Duration, journalSync string, unhealthyAfter int) error {
	relayMode := mode == "relay"
	var outbox *cluster.Outbox
	reg := core.NewCollectionRegistry()
	var store *core.Store
	if stateDir != "" {
		var err error
		store, err = core.NewStoreFS(stateDir, fsio.OS, journalSync)
		if err != nil {
			return err
		}
		if relayMode {
			// The outbox and its flush sink must exist before Load: the
			// journal may hold relay flush frames whose replay re-cuts
			// deltas straight into the outbox.
			outbox, err = cluster.NewOutbox(fsio.OS, filepath.Join(stateDir, "outbox"))
			if err != nil {
				return err
			}
			store.SetFlushSink(cluster.FlushSink(outbox))
		}
		restored, err := store.Load(reg)
		if err != nil {
			return fmt.Errorf("ldpd: restoring %s: %w", stateDir, err)
		}
		if len(restored) > 0 {
			log.Printf("ldpd: restored %d collection(s) from %s: %s",
				len(restored), stateDir, strings.Join(restored, ", "))
		}
	}

	var def *core.Collection
	if !relayMode {
		defaultCfg := core.FreqCollectionConfig(mechanism, core.PrivacyParams{Epsilon: epsilon, Domain: domain}, shards)
		var ok bool
		def, ok = reg.Get(core.DefaultCollection)
		if ok {
			// A restored snapshot wins over the flags: silently rebuilding
			// the default collection with different parameters would orphan
			// its persisted counts.
			if def.Config() != defaultCfg {
				log.Printf("ldpd: default collection restored as %+v; flags %+v ignored", def.Config(), defaultCfg)
			}
		} else {
			var err error
			if def, err = reg.Create(core.DefaultCollection, defaultCfg); err != nil {
				return err
			}
			if store != nil {
				// A fresh default collection gets its journal and an
				// immediate snapshot, so its configuration (and everything
				// acknowledged before the first checkpoint tick) survives a
				// crash from the very first report on.
				if err := store.Attach(def); err != nil {
					return fmt.Errorf("ldpd: journal for default collection: %w", err)
				}
				if err := store.Save(reg, def); err != nil {
					return fmt.Errorf("ldpd: initial checkpoint: %w", err)
				}
			}
		}
	}

	svc := core.NewMultiService(reg, store)
	svc.SetUnhealthyAfter(unhealthyAfter)
	var relay *cluster.Relay
	handler := http.Handler(nil)
	if relayMode {
		// Relay mode: no flag-built default collection — every
		// collection (including "default") is mirrored from the
		// upstream, so its configuration matches the aggregation node
		// parameter for parameter and cut deltas merge exactly.
		relay = cluster.NewRelay(svc, store, cluster.NewUpstream(upstream), outbox)
		handler = relay.Handler()
	} else {
		handler = svc.Handler()
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if store != nil {
		if checkpointEvery > 0 {
			go checkpointLoop(ctx, store, reg, checkpointEvery)
		} else {
			// time.NewTicker panics on non-positive intervals; treat
			// them as "no periodic checkpoints" — creates/deletes are
			// still mirrored immediately and shutdown flushes.
			log.Print("ldpd: periodic checkpointing disabled (-checkpoint-interval <= 0)")
		}
	}

	if relay != nil {
		go relay.Run(ctx, flushEvery)
	}

	// Bind before announcing readiness, so a failed bind never logs a
	// "listening" line that the operator (or a readiness probe) trusts.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	if relayMode {
		log.Printf("ldpd: relay for upstream %s (flush every %s), listening on %s", upstream, flushEvery, ln.Addr())
	} else {
		// Report the effective configuration — the restored snapshot may
		// have overridden the flags, and shards=0 resolves to GOMAXPROCS.
		cfg := def.Config()
		log.Printf("ldpd: default %s with ε=%g over domain %d (%d shards), listening on %s",
			cfg.Mechanism, cfg.Epsilon, cfg.Domain, def.Aggregator().Shards(), ln.Addr())
	}

	// Both exits — a signal and an accept-loop failure — converge on
	// the same drain-then-flush sequence: even with the listener dead,
	// in-flight handlers may still be 202-ing reports, and the final
	// snapshot must hold everything the server acknowledged.
	var serveErr error
	select {
	case serveErr = <-errCh:
		log.Printf("ldpd: serve: %v", serveErr)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	log.Print("ldpd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ldpd: shutdown: %v", err)
	}
	if relay != nil {
		// With the listener drained, one final flush ships everything
		// acknowledged; whatever cannot reach the upstream stays in the
		// journal-backed outbox for the next start.
		flushCtx, flushCancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := relay.Flush(flushCtx); err != nil {
			log.Printf("ldpd: final relay flush (deltas preserved in the outbox): %v", err)
		}
		flushCancel()
	}
	if store != nil {
		if err := store.SaveAll(reg); err != nil {
			// Joined with the serve error (if any): both failures
			// matter to whoever reads the process exit.
			return errors.Join(serveErr, fmt.Errorf("ldpd: final checkpoint: %w", err))
		}
		log.Printf("ldpd: final checkpoint written to %s", store.Dir())
	}
	return serveErr
}

// checkpointLoop periodically checkpoints every collection until the
// context is cancelled. Unchanged collections are skipped by the store
// (epoch comparison), so an idle server does no disk writes.
func checkpointLoop(ctx context.Context, store *core.Store, reg *core.CollectionRegistry, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if err := store.SaveAll(reg); err != nil {
				log.Printf("ldpd: checkpoint: %v", err)
			}
		}
	}
}
