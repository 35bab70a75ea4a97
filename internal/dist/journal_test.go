package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	winofault "repro"
	"repro/internal/service"
)

// jsonBody marshals v for an http.Post body.
func jsonBody(v any) (io.Reader, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// journalPath gives each test its own journal file.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

// TestJournalRoundTrip: records appended by one journal instance replay into
// an identical registry in the next.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, reg, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 0 {
		t.Fatalf("fresh journal replayed %d campaigns", len(reg))
	}
	req := tinyReq()
	j.append(journalRecord{T: recCampaign, Key: "aaa", Req: &req})
	j.append(journalRecord{T: recShard, Key: "aaa", Phase: PhaseSweep, Lo: 0, Hi: 2, Counts: []int{3, 4}})
	j.append(journalRecord{T: recCampaign, Key: "bbb", Req: &req})
	j.append(journalRecord{T: recDone, Key: "bbb"})
	j.close()

	_, reg, err = openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 1 {
		t.Fatalf("replayed %d campaigns, want 1 (bbb was retired)", len(reg))
	}
	cs := reg["aaa"]
	if cs == nil {
		t.Fatal("campaign aaa not replayed")
	}
	ranges := cs.phases[PhaseSweep]
	if len(ranges) != 1 || ranges[0].lo != 0 || ranges[0].hi != 2 {
		t.Fatalf("replayed ranges %+v, want one [0,2)", ranges)
	}
	if ranges[0].counts[0] != 3 || ranges[0].counts[1] != 4 {
		t.Fatalf("replayed counts %v, want [3 4]", ranges[0].counts)
	}
}

// TestJournalTornTailRecovery is the bugfix pin: a journal whose final
// record was torn by a crash mid-write must replay every complete record,
// truncate the torn bytes, and keep accepting appends — never refuse to
// start.
func TestJournalTornTailRecovery(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq()
	j.append(journalRecord{T: recCampaign, Key: "aaa", Req: &req})
	j.append(journalRecord{T: recShard, Key: "aaa", Phase: PhaseSweep, Lo: 0, Hi: 1, Counts: []int{7}})
	j.close()

	// Tear the tail the way a crash does: a record that never got its
	// terminating newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"t":"shard","key":"aaa","phase":0,"lo":1,"hi":2,"coun`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logged bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&logged, nil))
	j2, reg, err := openJournal(path, 100, lg)
	if err != nil {
		t.Fatalf("torn journal refused to open: %v", err)
	}
	cs := reg["aaa"]
	if cs == nil || len(cs.phases[PhaseSweep]) != 1 {
		t.Fatalf("complete prefix not replayed: %+v", reg)
	}
	if !strings.Contains(logged.String(), "torn") {
		t.Errorf("discard was not logged: %v", logged.String())
	}
	// The torn bytes are gone and the next append lands on a clean boundary.
	j2.append(journalRecord{T: recDone, Key: "aaa"})
	j2.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), torn) {
		t.Error("torn bytes survived the truncate")
	}
	_, reg, err = openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 0 {
		t.Fatalf("after done record, %d campaigns replayed, want 0", len(reg))
	}
}

// TestJournalCompaction: past the record budget the journal collapses to a
// snapshot of live state — retired campaigns vanish, live merges survive, and
// records appended while the snapshot rewrite is in flight are absorbed into
// the new file rather than lost with the old one.
func TestJournalCompaction(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq()
	registry := map[string]*campaignState{}
	// Many retired campaigns bloat the file; only one stays live.
	for i := 0; i < 50; i++ {
		key := "retired-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		j.append(journalRecord{T: recCampaign, Key: key, Req: &req})
		j.append(journalRecord{T: recDone, Key: key})
	}
	j.append(journalRecord{T: recCampaign, Key: "live", Req: &req})
	j.append(journalRecord{T: recShard, Key: "live", Phase: PhaseLayers, Lo: 4, Hi: 6, Counts: []int{1, 2}})
	registry["live"] = &campaignState{req: req, phases: map[int][]shardRange{
		PhaseLayers: {{lo: 4, hi: 6, counts: []int{1, 2}}},
	}}
	if !j.beginCompaction() {
		t.Fatalf("journal with %d records not over budget 100", j.records)
	}
	if j.beginCompaction() {
		t.Fatal("second beginCompaction claimed the slot while one is in flight")
	}
	recs := snapshotRecords(registry)
	// A record appended between snapshot and rename postdates the snapshot:
	// it must ride the pending buffer into the new file.
	j.append(journalRecord{T: recShard, Key: "live", Phase: PhaseLayers, Lo: 0, Hi: 1, Counts: []int{9}})
	j.finishCompaction(recs)
	if j.records != 3 {
		t.Fatalf("compacted to %d records, want 3 (campaign + shard + mid-compaction shard)", j.records)
	}
	// Appends after compaction land on the reopened handle.
	j.append(journalRecord{T: recShard, Key: "live", Phase: PhaseLayers, Lo: 2, Hi: 3, Counts: []int{7}})
	j.close()

	_, reg, err := openJournal(path, 100, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 1 || reg["live"] == nil {
		t.Fatalf("compacted journal replayed %+v, want just campaign live", reg)
	}
	if got := len(reg["live"].phases[PhaseLayers]); got != 3 {
		t.Fatalf("live campaign has %d layer ranges, want 3", got)
	}
}

// TestCoordinatorResumesFromJournal is the crash-recovery acceptance test:
// a coordinator that merged part of a campaign and died is replaced by a new
// incarnation on the same journal, which resumes the campaign — re-running
// only the unmerged units — and produces bytes identical to a local run.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	noProgress := func(batch, done, total int) {}

	// Incarnation A: one raw worker completes exactly one sweep shard
	// (ShardUnits=1 → one unit), then A "crashes" (context canceled, never
	// a done record).
	cfgA := CoordinatorConfig{
		LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond,
		ShardUnits: 1, JournalPath: path, Logger: quiet(),
	}
	c1, err := NewCoordinator(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	rw := newRawWorker(t, ts1.URL, "doomed")
	ctx1, crash := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		_, err := c1.Run(ctx1, key, req, noProgress)
		runDone <- err
	}()
	task := rw.leaseOne(5 * time.Second)
	if task.Phase != PhaseSweep || task.Hi-task.Lo != 1 {
		t.Fatalf("first lease %+v, want a single sweep unit", task)
	}
	exec := &fleetWorker{cfg: WorkerConfig{Workers: 1, Logger: quiet()}}
	res := exec.execute(context.Background(), *task)
	if res.Error != "" {
		t.Fatalf("shard execution failed: %s", res.Error)
	}
	rw.report(t, res)
	crash()
	if err := <-runDone; err == nil {
		t.Fatal("run survived the simulated crash")
	}
	ts1.Close()
	c1.Close()

	// Incarnation B on the same journal: the campaign is recovered, and a
	// real two-worker fleet finishes it.
	cfgB := cfgA
	c2, err := NewCoordinator(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	recovered := c2.Recovered()
	if len(recovered) != 1 || recovered[0].Key != key {
		t.Fatalf("recovered %+v, want campaign %.12s", recovered, key)
	}
	if k2, err := service.Key(recovered[0].Req); err != nil || k2 != key {
		t.Fatalf("recovered request canonicalizes to %.12s (%v), want %.12s", k2, err, key)
	}
	ts2 := httptest.NewServer(c2.Handler())
	ctx2, cancel2 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"r1", "r2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx2, WorkerConfig{Server: ts2.URL, Name: name, Workers: 1, Logger: quiet()})
		}()
	}
	t.Cleanup(func() {
		cancel2()
		wg.Wait()
		ts2.Close()
		c2.Close()
	})
	waitForWorkers(t, c2, 2)

	got, err := c2.Run(context.Background(), recovered[0].Key, recovered[0].Req, noProgress)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed bytes differ from local:\n%s\n%s", got, want)
	}

	// The resumed run re-executed everything except the one journaled unit.
	plan, err := winofault.NewPlan(req)
	if err != nil {
		t.Fatal(err)
	}
	totalUnits := 0
	for _, ph := range plan.Phases() {
		totalUnits += ph.Units
	}
	var shards int64
	for _, w := range c2.Workers() {
		shards += w.Shards
	}
	if want := int64(totalUnits - 1); shards != want {
		t.Errorf("resumed fleet executed %d shards, want %d (one unit pre-filled from the journal)", shards, want)
	}

	// Retiring the campaign empties the journal for the next incarnation.
	c2.CampaignDone(key)
	c3, err := NewCoordinator(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if left := c3.Recovered(); len(left) != 0 {
		t.Errorf("after CampaignDone, %d campaigns still recovered", len(left))
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestRecoveredRunResumesInProcess: a restarted coordinator's worker table
// is necessarily empty when recovery resubmits journaled campaigns, so it
// executes the campaign's gaps itself — only the gaps: journaled merges are
// pre-filled, except a corrupted range, which is dropped.
func TestRecoveredRunResumesInProcess(t *testing.T) {
	req := tinyReq()
	want := localBytes(t, req)
	key, err := service.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	noProgress := func(batch, done, total int) {}
	var logs syncBuffer
	cfg := CoordinatorConfig{
		LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond,
		ShardUnits: 1, JournalPath: path, Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	}

	// Incarnation A: one raw worker merges exactly one sweep unit; a
	// corrupted record for the other unit lands in the journal; A crashes.
	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	rw := newRawWorker(t, ts1.URL, "doomed")
	ctx1, crash := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		_, err := c1.Run(ctx1, key, req, noProgress)
		runDone <- err
	}()
	task := rw.leaseOne(5 * time.Second)
	exec := &fleetWorker{cfg: WorkerConfig{Workers: 1, Logger: quiet()}}
	res := exec.execute(context.Background(), *task)
	if res.Error != "" {
		t.Fatalf("shard execution failed: %s", res.Error)
	}
	rw.report(t, res)
	other := 1 - task.Lo
	c1.mu.Lock()
	c1.jrnl.append(journalRecord{T: recShard, Key: key, Phase: PhaseSweep, Lo: other, Hi: other + 1, Counts: []int{req.Samples + 1}})
	c1.mu.Unlock()
	crash()
	if err := <-runDone; err == nil {
		t.Fatal("run survived the simulated crash")
	}
	ts1.Close()
	c1.Close()

	// Incarnation B recovers the campaign and, with no fleet, runs it.
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rec := c2.Recovered(); len(rec) != 1 || rec[0].Key != key {
		t.Fatalf("recovered %+v, want campaign %.12s", rec, key)
	}
	ctx, tr := tracedCtx(context.Background(), key)
	got, err := c2.Run(ctx, key, req, noProgress)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered bytes differ from local:\n%s\n%s", got, want)
	}
	if by := unitsByWorker(t, spansNamed(tr, "shard")); len(by) != 1 || by[inProcessWorker] != planUnits(t, req)-1 {
		t.Errorf("units by worker %v, want all but the one journaled unit in-process", by)
	}
	if recovered := spansNamed(tr, "journal-recovery"); len(recovered) != 1 || recovered[0].Attrs["units"] != "1" {
		t.Errorf("journal-recovery spans %v, want one covering 1 unit", recovered)
	}
	for _, line := range []string{"units recovered from journal", "dropping invalid journaled range"} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, logs.String())
		}
	}
}

// report posts a hand-built shard result over the wire.
func (rw *rawWorker) report(t *testing.T, res ShardResult) {
	t.Helper()
	body, err := jsonBody(res)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rw.base+"/workers/"+rw.id+"/result", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("result returned %d", resp.StatusCode)
	}
}

// TestFleetAuth: with an Auth hook every worker endpoint demands a valid
// key — a keyless register is a 401, a keyed worker joins and serves.
func TestFleetAuth(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL: time.Second, Logger: quiet(),
		Auth: func(k string) bool { return k == "sekrit" },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	body, _ := jsonBody(registerRequest{Name: "anon"})
	resp, err := http.Post(ts.URL+"/workers", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless register returned %d, want 401", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, WorkerConfig{Server: ts.URL, Name: "keyed", Workers: 1, APIKey: "sekrit", Logger: quiet()})
	}()
	waitForWorkers(t, c, 1)
	cancel()
	<-done
}

// FuzzJournalReplay: arbitrary journal bytes never stop a coordinator from
// starting. openJournal replays exactly the longest prefix of complete,
// parseable records, truncates the file there (so a second open replays
// the same registry and truncates nothing), and at pre-fill a replayed
// range that fails the plan's CheckCounts is dropped, never merged.
func FuzzJournalReplay(f *testing.F) {
	plan, err := winofault.NewPlan(tinyReq())
	if err != nil {
		f.Fatal(err)
	}
	// One file for every input: a fuzz process runs its inputs one at a
	// time, and a directory per input would dominate the run.
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, registry, err := openJournal(path, 0, quiet())
		if err != nil {
			t.Fatalf("openJournal refused content: %v", err)
		}
		j.close()

		good, records := 0, 0
		for {
			nl := bytes.IndexByte(data[good:], '\n')
			if nl < 0 {
				break
			}
			var rec journalRecord
			if json.Unmarshal(data[good:good+nl], &rec) != nil || rec.T == "" || rec.Key == "" {
				break
			}
			good += nl + 1
			records++
		}
		if j.records != records {
			t.Errorf("replayed %d records, want the prefix's %d", j.records, records)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
			t.Fatalf("journal truncated to %v bytes (%v), want %d", fi.Size(), err, good)
		}
		j2, again, err := openJournal(path, 0, quiet())
		if err != nil {
			t.Fatalf("reopening the truncated journal: %v", err)
		}
		j2.close()
		if j2.records != records || !reflect.DeepEqual(again, registry) {
			t.Errorf("reopened journal replays %d records, registry %v; first open %d, %v", j2.records, again, records, registry)
		}

		// Pre-fill every replayed campaign as the fuzz plan's: counts come
		// only from ranges the plan accepts, the first range covering a unit
		// wins, and only the accepted ranges stay in the registry.
		c := &Coordinator{cfg: CoordinatorConfig{Logger: quiet()}, registry: registry}
		for key, cs := range registry {
			for phase, ph := range plan.Phases() {
				replayed := append([]shardRange(nil), cs.phases[phase]...)
				run := &campaignRun{plan: plan, counts: make([]int, ph.Units), total: ph.Units}
				covered, _ := c.prefillLocked(key, phase, run)
				want := make([]int, ph.Units)
				wantCovered := make([]bool, ph.Units)
				filled := 0
				var kept []shardRange
				for _, r := range replayed {
					if plan.CheckCounts(phase, r.lo, r.hi, r.counts) != nil {
						continue
					}
					kept = append(kept, r)
					for i := r.lo; i < r.hi; i++ {
						if !wantCovered[i] {
							wantCovered[i], want[i] = true, r.counts[i-r.lo]
							filled++
						}
					}
				}
				if !reflect.DeepEqual(run.counts, want) || !reflect.DeepEqual(covered, wantCovered) || run.doneUnits != filled {
					t.Errorf("phase %d pre-filled %v (%d units, covered %v), want %v (%d, %v)", phase, run.counts, run.doneUnits, covered, want, filled, wantCovered)
				}
				if len(cs.phases[phase]) != len(kept) || (len(kept) > 0 && !reflect.DeepEqual(cs.phases[phase], kept)) {
					t.Errorf("phase %d kept ranges %v, want %v", phase, cs.phases[phase], kept)
				}
			}
		}
	})
}
