package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"

	winofault "repro"
	"repro/internal/service"
)

// The control-plane journal makes the coordinator restartable: every
// campaign handed to Run, every merged shard's unit range and counts, and
// every terminal outcome is appended as one JSON record per line. A
// restarted coordinator replays the journal into its campaign registry and
// resumes each unfinished campaign exactly where the last complete record
// left it — already-merged unit ranges are pre-filled, only the gaps are
// re-sharded, and the workers' ordinary re-register/re-lease protocol covers
// the rest. Determinism (counts are a pure function of the request) is what
// makes this sound: a pre-filled range and a recomputed one hold identical
// integers, so recovery can never change result bytes, only wall-clock time.
//
// Durability model: records are written straight to the file descriptor (no
// user-space buffering), so they survive a killed process unconditionally;
// only a whole-machine crash can lose the tail of the file, and replay
// tolerates exactly that by discarding a trailing partial record. The
// journal is single-owner — one coordinator process per journal file.

// Journal record types.
const (
	// recCampaign registers a campaign: Key plus the full request needed to
	// resubmit it after a restart.
	recCampaign = "campaign"
	// recShard records one merged shard: the unit range [Lo, Hi) of Phase
	// and its per-unit agreement counts.
	recShard = "shard"
	// recDone retires a campaign: its result reached the content-addressed
	// cache (or it failed/was canceled in a client-visible way), so recovery
	// must not resurrect it.
	recDone = "done"
)

// journalRecord is one line of the journal.
type journalRecord struct {
	T      string                     `json:"t"`
	Key    string                     `json:"key"`
	Req    *winofault.CampaignRequest `json:"req,omitempty"`
	Phase  int                        `json:"phase,omitempty"`
	Lo     int                        `json:"lo,omitempty"`
	Hi     int                        `json:"hi,omitempty"`
	Counts []int                      `json:"counts,omitempty"`
	// Epoch (campaign records only) is the coordinator incarnation that
	// registered the campaign; recovery traces use it to link the prior
	// incarnation's trace across a restart.
	Epoch string `json:"epoch,omitempty"`
}

// shardRange is one journaled merged range of a phase's unit space.
type shardRange struct {
	lo, hi int
	counts []int
}

// campaignState is the registry entry for one journaled campaign: the
// request to resubmit on recovery, and the merged ranges per phase.
type campaignState struct {
	req    winofault.CampaignRequest
	phases map[int][]shardRange
	// epoch is the coordinator incarnation that registered the campaign (the
	// prior incarnation's, for recovered entries).
	epoch string
	// recovered marks entries replayed from a previous incarnation's journal:
	// their journal-recovery spans link that incarnation's epoch.
	recovered bool
}

// journal is the append-only writer. Appends are called with the coordinator
// mutex held (they happen inside merge/registry updates), so the journal's
// own mutex is mostly uncontended — except during compaction, whose bulk
// snapshot write deliberately runs WITHOUT either mutex so lease/result/
// heartbeat traffic never stalls behind a multi-megabyte rewrite+fsync.
type journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	records int // complete records currently in the file
	budget  int // compaction threshold (records)
	log     *slog.Logger
	// compacting marks an in-flight snapshot rewrite (finishCompaction in a
	// goroutine). Meanwhile appends keep landing on the old file AND are
	// buffered in pending, so the snapshot can absorb them before the rename
	// — no record is lost whichever file survives.
	compacting bool
	pending    []byte
	pendingN   int
}

// openJournal opens (or creates) the journal at path and replays it into a
// campaign registry. A trailing partial record — the signature of a crash
// mid-write — is discarded with a log line and truncated away so the next
// append starts on a clean boundary; refusing to start would turn one lost
// record into a lost coordinator.
func openJournal(path string, budget int, lg *slog.Logger) (*journal, map[string]*campaignState, error) {
	j := &journal{path: path, budget: budget, log: lg}
	registry := map[string]*campaignState{}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("dist: read journal %s: %w", path, err)
	}
	// Replay the longest prefix of complete, parseable, newline-terminated
	// records. A record missing its terminator or failing to parse marks a
	// torn write; crash-mid-write only ever corrupts the tail, so everything
	// from the first bad record on is discarded.
	good := 0
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // unterminated final record: torn
		}
		var rec journalRecord
		if err := json.Unmarshal(data[good:good+nl], &rec); err != nil || rec.T == "" || rec.Key == "" {
			break
		}
		good += nl + 1
		j.records++
		replayRecord(registry, rec, lg)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open journal %s: %w", path, err)
	}
	if good < len(data) {
		lg.Warn("dist: journal: discarding torn trailing record (crash mid-write); resuming from the last complete record",
			"journal", path, "bytes", len(data)-good)
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dist: truncate torn journal %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("dist: seek journal %s: %w", path, err)
	}
	j.f = f
	return j, registry, nil
}

// replayRecord applies one journal record to the registry being rebuilt.
func replayRecord(registry map[string]*campaignState, rec journalRecord, lg *slog.Logger) {
	switch rec.T {
	case recCampaign:
		if rec.Req == nil {
			lg.Warn("dist: journal: campaign record has no request; dropping", "campaign", service.ShortKey(rec.Key))
			return
		}
		if _, ok := registry[rec.Key]; !ok {
			registry[rec.Key] = &campaignState{req: *rec.Req, phases: map[int][]shardRange{}, epoch: rec.Epoch}
		}
	case recShard:
		cs, ok := registry[rec.Key]
		if !ok || rec.Hi <= rec.Lo || len(rec.Counts) != rec.Hi-rec.Lo {
			lg.Warn("dist: journal: dropping malformed shard record",
				"campaign", service.ShortKey(rec.Key), "phase", rec.Phase, "lo", rec.Lo, "hi", rec.Hi, "counts", len(rec.Counts))
			return
		}
		cs.phases[rec.Phase] = append(cs.phases[rec.Phase], shardRange{lo: rec.Lo, hi: rec.Hi, counts: rec.Counts})
	case recDone:
		delete(registry, rec.Key)
	default:
		lg.Warn("dist: journal: ignoring unknown record type", "type", rec.T)
	}
}

// append writes one record. Journal failures degrade durability, never
// availability: the error is logged and the coordinator keeps serving.
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		j.log.Error("dist: journal: marshal record failed", "type", rec.T, "err", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	line := append(data, '\n')
	if _, err := j.f.Write(line); err != nil {
		j.log.Error("dist: journal: append record failed", "type", rec.T, "err", err)
		return
	}
	j.records++
	if j.compacting {
		// A snapshot rewrite is in flight: this record postdates its registry
		// snapshot, so buffer it for finishCompaction to tack onto the new
		// file before the rename. The write above still lands on the old file,
		// so a crash during compaction loses nothing either way.
		j.pending = append(j.pending, line...)
		j.pendingN++
	}
}

// beginCompaction claims the compaction slot if the file has accreted enough
// records to be worth rewriting. The caller holds the coordinator mutex, so
// the registry it is about to snapshot matches the file's record set exactly;
// the expensive rewrite itself belongs in a goroutine via finishCompaction.
func (j *journal) beginCompaction() bool {
	if j == nil || j.budget <= 0 {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.compacting || j.records <= j.budget {
		return false
	}
	j.compacting = true
	return true
}

// finishCompaction atomically rewrites the journal as the snapshot taken at
// beginCompaction time: one campaign record plus its merged ranges per
// unfinished campaign. Retired campaigns and superseded shard records vanish,
// bounding the file by live state instead of history. The bulk write and
// fsync run without any lock — lease/result/heartbeat traffic keeps flowing —
// and records appended meanwhile are replayed from the pending buffer under
// j.mu before the rename. Every failure path leaves the old file (which holds
// all records) as the journal.
func (j *journal) finishCompaction(recs []journalRecord) {
	done := false
	defer func() {
		j.mu.Lock()
		j.compacting = false
		j.pending = nil
		j.pendingN = 0
		j.mu.Unlock()
		if !done {
			os.Remove(j.path + ".tmp")
		}
	}()
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		j.log.Error("dist: journal: compaction open failed", "path", tmp, "err", err)
		return
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			j.log.Error("dist: journal: compaction marshal failed", "err", err)
			f.Close()
			return
		}
		w.Write(data)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		j.log.Error("dist: journal: compaction write failed", "path", tmp, "err", err)
		f.Close()
		return
	}

	// Publication: from here on j.mu is held, so no new appends race the
	// pending drain, and the swap of j.f/j.records is atomic to appenders.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil { // journal closed mid-compaction
		f.Close()
		return
	}
	if len(j.pending) > 0 {
		if _, err := f.Write(j.pending); err != nil {
			j.log.Error("dist: journal: compaction append pending failed", "err", err)
			f.Close()
			return
		}
		if err := f.Sync(); err != nil {
			j.log.Error("dist: journal: compaction sync pending failed", "err", err)
			f.Close()
			return
		}
	}
	if err := f.Close(); err != nil {
		j.log.Error("dist: journal: compaction close failed", "path", tmp, "err", err)
		return
	}
	if err := os.Rename(tmp, j.path); err != nil {
		j.log.Error("dist: journal: compaction rename failed", "err", err)
		return
	}
	done = true
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The snapshot is in place but unappendable; keep the old handle
		// (now pointing at the unlinked file) so appends still go somewhere
		// recoverable-by-log rather than panicking.
		j.log.Error("dist: journal: reopen after compaction failed", "err", err)
		return
	}
	j.f.Close()
	j.f = nf
	j.records = len(recs) + j.pendingN
	j.log.Info("dist: journal: compacted", "records", j.records)
}

// snapshotRecords renders the registry as a minimal record sequence, in
// deterministic key order.
func snapshotRecords(registry map[string]*campaignState) []journalRecord {
	keys := make([]string, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var recs []journalRecord
	for _, k := range keys {
		cs := registry[k]
		req := cs.req
		recs = append(recs, journalRecord{T: recCampaign, Key: k, Req: &req, Epoch: cs.epoch})
		phases := make([]int, 0, len(cs.phases))
		for p := range cs.phases {
			phases = append(phases, p)
		}
		sort.Ints(phases)
		for _, p := range phases {
			for _, r := range cs.phases[p] {
				recs = append(recs, journalRecord{T: recShard, Key: k, Phase: p, Lo: r.lo, Hi: r.hi, Counts: r.counts})
			}
		}
	}
	return recs
}

// close releases the file handle (tests and wfserve shutdown).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
