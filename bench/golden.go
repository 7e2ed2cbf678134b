package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/cpu"
)

// goldens holds the expected SHA-256 of every output a workload
// produces, keyed by what produced it. In update mode it records what
// it sees instead of checking.
type goldens struct {
	path   string
	update bool

	mu        sync.Mutex
	want      map[string]string
	seen      map[string]string
	attempted int
	failed    int
	firstBad  string
}

func loadGoldens(dir, workload string, update bool) (*goldens, error) {
	g := &goldens{
		path:   filepath.Join(dir, workload+".golden"),
		update: update,
		want:   map[string]string{},
		seen:   map[string]string{},
	}
	if update {
		return g, nil
	}
	f, err := os.Open(g.path)
	if err != nil {
		return nil, fmt.Errorf("goldens: %w (run with -update to create them)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("goldens: %s: malformed line %q", g.path, sc.Text())
		}
		g.want[key] = sum
	}
	return g, sc.Err()
}

// check counts one attempted operation: it fails when err is set or
// when out's digest differs from the golden for key.
func (g *goldens) check(key string, out []byte, err error) {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	switch {
	case err != nil:
		g.fail(fmt.Sprintf("%s: %v", key, err))
	case g.update:
		g.seen[key] = got
	case g.want[key] == "":
		g.fail(key + ": no golden digest")
	case g.want[key] != got:
		g.fail(key + ": output differs from the golden digest")
	}
}

func (g *goldens) fail(msg string) {
	g.failed++
	if g.firstBad == "" {
		g.firstBad = msg
	}
}

// counts reports attempted and failed operations so far.
func (g *goldens) counts() (attempted, failed int, first string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed, g.firstBad
}

// save writes the digests recorded in update mode, sorted by key.
func (g *goldens) save() error {
	if !g.update {
		return nil
	}
	if g.failed > 0 {
		return errors.New("goldens: not updating after failed operations: " + g.firstBad)
	}
	keys := make([]string, 0, len(g.seen))
	for k := range g.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, g.seen[k])
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, []byte(b.String()), 0o644)
}

// resultJSON is the canonical encoding of a simulation result that the
// digests cover: every field, as encoding/json writes it.
func resultJSON(res *cpu.Result) []byte {
	if res == nil {
		return nil
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil
	}
	return b
}
