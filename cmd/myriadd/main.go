// Command myriadd runs a MYRIAD federation server: it connects to the
// configured component gateways, installs the integrated relation
// definitions, and serves the federation protocol (global queries,
// global transactions, schema browsing) over TCP.
//
// Usage:
//
//	myriadd -config federation.json
//
// Config format (JSON):
//
//	{
//	  "name": "university",
//	  "listen": ":7100",
//	  "strategy": "cost-based",            // or "simple"
//	  "local_query_timeout_ms": 2000,      // deadlock-resolution timeout
//	  "deadlock_detect_ms": 1000,          // global detector tick; 0 = off
//	  "coordinator_compact_bytes": 1048576, // coordinator log compaction trigger; 0 = off
//	  "sites": [{"name": "east", "addr": "localhost:7101", "pool": 4}],
//	  "integrated": [
//	    {"name": "ALL_STUDENTS",
//	     "columns": [{"name": "id", "type": "INTEGER"}, ...],
//	     "key": ["id"],
//	     "combine": "union all",           // union all | union | merge
//	     "resolvers": {"email": "first"},
//	     "sources": [{"site": "east", "export": "STUDENT",
//	                  "map": {"id": "id", "name": "name"},
//	                  "filter": "gpa > 0"}]}
//	  ]
//	}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/wal"
)

type siteConfig struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	Pool int    `json:"pool,omitempty"`
}

type config struct {
	Name           string                        `json:"name"`
	Listen         string                        `json:"listen"`
	Strategy       string                        `json:"strategy,omitempty"`
	LocalTimeoutMs int64                         `json:"local_query_timeout_ms,omitempty"`
	Sites          []siteConfig                  `json:"sites"`
	Integrated     []fedserver.IntegratedDefJSON `json:"integrated"`
	// StreamBatchRows caps rows per streaming batch frame served to
	// clients (0 = comm.DefaultBatchRows).
	StreamBatchRows int `json:"stream_batch_rows,omitempty"`
	// FanIn selects the fan-in policy for multi-source scan sets:
	// "auto" (default: source order, or an ordered merge where it
	// satisfies the ORDER BY) or "interleave" (batches emit in
	// completion order; first-row latency bound by the fastest site).
	// Any other value fails at boot.
	FanIn string `json:"fan_in,omitempty"`
	// StreamRowBudget caps integrated rows in flight per scan set
	// across its source streams (0 = executor default); per-source
	// prefetch windows shrink as sources multiply.
	StreamRowBudget int `json:"stream_row_budget,omitempty"`
	// StreamByteBudget additionally caps bytes in flight per scan set
	// (0 = rows-only): wide rows shrink feeder batches instead of
	// blowing the rows-in-flight window.
	StreamByteBudget int64 `json:"stream_byte_budget,omitempty"`
	// MemBudgetBytes bounds each global query's blocking-operator
	// memory (0 = unlimited): sorts and OUTERJOIN-MERGE spill sorted
	// runs to spill_dir past it.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	// SpillDir is where spill runs are written ("" = OS temp dir).
	SpillDir string `json:"spill_dir,omitempty"`
	// CoordinatorLog, when set, is the path of the durable two-phase
	// commit coordinator log: commit decisions are fsynced before phase
	// two, and on startup the log replays and unfinished global
	// transactions are re-driven (undecided abort, decided commit).
	CoordinatorLog string `json:"coordinator_log,omitempty"`
	// CoordinatorSync selects the coordinator log's append sync policy
	// for non-decision records: "always" (default), "interval", "off".
	// Commit decisions are always fsynced regardless.
	CoordinatorSync string `json:"coordinator_sync,omitempty"`
	// CoordinatorCompactBytes triggers coordinator-log compaction (the
	// log is rewritten down to its live entries) when it outgrows this
	// size. Absent defaults to 1MB whenever coordinator_log is set;
	// 0 disables automatic compaction.
	CoordinatorCompactBytes *int64 `json:"coordinator_compact_bytes,omitempty"`
	// DeadlockDetectMs is the tick of the coordinator's global deadlock
	// detector, which stitches every site's waits-for edges and wounds
	// the youngest transaction of each cycle. Absent defaults to 1000ms;
	// 0 disables detection, leaving deadlocks to the sites' wound-wait
	// fast path and lock-wait timeouts.
	DeadlockDetectMs *int64 `json:"deadlock_detect_ms,omitempty"`
}

func main() {
	configPath := flag.String("config", "", "path to federation config JSON (required)")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*configPath); err != nil {
		log.Fatalf("myriadd: %v", err)
	}
}

func run(configPath string) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", configPath, err)
	}
	if cfg.Name == "" {
		return fmt.Errorf("config: name is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = ":7100"
	}

	fed := core.New(cfg.Name)
	switch strings.ToLower(cfg.Strategy) {
	case "", "cost-based", "costbased", "full":
		fed.Strategy = core.StrategyCostBased
	case "simple":
		fed.Strategy = core.StrategySimple
	default:
		return fmt.Errorf("config: unknown strategy %q", cfg.Strategy)
	}
	if cfg.LocalTimeoutMs > 0 {
		fed.SetLocalQueryTimeout(time.Duration(cfg.LocalTimeoutMs) * time.Millisecond)
	}
	fanIn, err := executor.ParseFanIn(cfg.FanIn)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	fed.FanIn = fanIn
	fed.StreamRowBudget = cfg.StreamRowBudget
	fed.StreamByteBudget = cfg.StreamByteBudget
	fed.MemBudget = cfg.MemBudgetBytes
	fed.SpillDir = cfg.SpillDir
	if cfg.MemBudgetBytes > 0 {
		dir := cfg.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		log.Printf("myriadd: per-query memory budget %d bytes, spilling to %s", cfg.MemBudgetBytes, dir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range cfg.Sites {
		pool := s.Pool
		if pool <= 0 {
			pool = 4
		}
		conn := gateway.DialRemote(s.Name, s.Addr, pool)
		if err := fed.AttachSite(ctx, conn); err != nil {
			return fmt.Errorf("attaching %s (%s): %w", s.Name, s.Addr, err)
		}
		log.Printf("myriadd: attached site %s at %s", s.Name, s.Addr)
	}
	if cfg.CoordinatorLog != "" {
		sync, err := wal.ParseSync(cfg.CoordinatorSync)
		if err != nil {
			return fmt.Errorf("config: coordinator_sync: %w", err)
		}
		if err := fed.EnableCoordinatorLog(cfg.CoordinatorLog, wal.Options{Sync: sync}); err != nil {
			return fmt.Errorf("coordinator log: %w", err)
		}
		if n := fed.Coordinator().Pending(); n > 0 {
			log.Printf("myriadd: coordinator log replay found %d unfinished global transaction(s), recovering", n)
			if err := fed.RecoverGlobal(ctx); err != nil {
				// Not fatal: a participant may still be down. The entries
				// stay pending; recovering sites can also pull outcomes
				// through OpTxnStatus.
				log.Printf("myriadd: global recovery incomplete: %v", err)
			}
		}
		compact := int64(1 << 20)
		if cfg.CoordinatorCompactBytes != nil {
			compact = *cfg.CoordinatorCompactBytes
		}
		fed.Coordinator().SetCompactBytes(compact)
		log.Printf("myriadd: coordinator log at %s (sync=%s, compact_bytes=%d)", cfg.CoordinatorLog, sync, compact)
	}
	detect := int64(1000)
	if cfg.DeadlockDetectMs != nil {
		detect = *cfg.DeadlockDetectMs
	}
	if detect > 0 {
		fed.StartDeadlockDetector(time.Duration(detect) * time.Millisecond)
		defer fed.StopDeadlockDetector()
		log.Printf("myriadd: global deadlock detector every %dms", detect)
	}
	for i := range cfg.Integrated {
		def, err := cfg.Integrated[i].ToDef()
		if err != nil {
			return fmt.Errorf("integrated[%d]: %w", i, err)
		}
		if err := fed.DefineIntegrated(def); err != nil {
			return fmt.Errorf("integrated[%d]: %w", i, err)
		}
		log.Printf("myriadd: defined integrated relation %s", def.Name)
	}

	// fedserver implements comm.StreamHandler: autocommit global query
	// results stream to clients as the federation produces them, with
	// remote fragments pipelining in from the gatewayds underneath.
	fs := fedserver.New(fed)
	fs.Logf = log.Printf // per-source stream metrics, one line per query
	srv := comm.NewServer(fs)
	srv.BatchRows = cfg.StreamBatchRows
	addr, err := srv.Listen(cfg.Listen)
	if err != nil {
		return err
	}
	log.Printf("myriadd: federation %q serving on %s (%d sites, %d integrated relations, %v strategy, streaming transport)",
		cfg.Name, addr, len(cfg.Sites), len(cfg.Integrated), fed.Strategy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("myriadd: shutting down")
	return srv.Close()
}
