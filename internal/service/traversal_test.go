package service

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIDPathTraversalRejected: campaign IDs reach the persistence layer as
// file names, so anything that is not a 64-hex content address — in
// particular encoded path fragments, which ServeMux decodes inside the
// {id} wildcard — must 404 without touching the filesystem.
func TestIDPathTraversalRejected(t *testing.T) {
	dir := t.TempDir()
	// A secret .json file one level above the cache dir.
	cacheDir := filepath.Join(dir, "cache")
	secret := filepath.Join(dir, "secret.json")
	if err := os.WriteFile(secret, []byte(`{"points":[{"BER":1,"Accuracy":1}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Jobs: 1, QueueDepth: 4, CacheDir: cacheDir})

	for _, id := range []string{
		"..%2Fsecret",
		"..%2F..%2Fetc%2Fpasswd",
		strings.Repeat("a", 63) + "G", // right length, not hex
		strings.Repeat("A", 64),       // uppercase hex is not canonical
	} {
		for _, path := range []string{"/campaigns/" + id, "/campaigns/" + id + "/result"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
			if strings.Contains(string(body), "Accuracy") {
				t.Errorf("GET %s leaked file contents: %s", path, body)
			}
		}
	}
}

// TestValidKey: the cache's disk tier maps keys to file names and accepts
// exactly the shape Key produces (64 lowercase hex digits), so it is the one
// gate between campaign IDs and the filesystem.
func TestValidKey(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte("{}")); err != nil {
		t.Errorf("canonical key rejected: %v", err)
	}
	for _, id := range []string{"", "abc", strings.Repeat("g", 64), "../x", strings.Repeat("A", 64)} {
		if err := c.Put(id, []byte("{}")); err == nil {
			t.Errorf("disk tier accepted key %q", id)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != key+".json" {
		t.Errorf("cache dir holds %v (%v), want only %s.json", ents, err, key)
	}
}
