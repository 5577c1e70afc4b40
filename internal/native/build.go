package native

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// cacheRoot returns the build cache directory. DBT_NATIVE_CACHE overrides
// the default (a per-user directory under the system temp dir) so tests
// and CI can isolate or pre-warm the cache.
func cacheRoot() string {
	if dir := os.Getenv("DBT_NATIVE_CACHE"); dir != "" {
		return dir
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("dbtoaster-native-%d", os.Getuid()))
}

// Build compiles the generated query + driver pair into an executable
// artifact and returns its path, reusing a cached build when one exists.
//
// The cache key hashes both sources and the toolchain version, so an
// emitter change or toolchain upgrade can never serve a stale
// artifact. Builds land under a content-addressed directory and the
// artifact is moved into place with a rename, so concurrent builders of
// the same query race benignly: both write identical bytes and the last
// rename wins atomically.
func Build(query, driver string) (string, error) {
	h := sha256.New()
	for _, part := range []string{query, driver, runtime.Version()} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	dir := filepath.Join(cacheRoot(), hex.EncodeToString(h.Sum(nil))[:16])
	target := filepath.Join(dir, "query.bin")
	if _, err := os.Stat(target); err == nil {
		return target, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("native: build cache: %w", err)
	}
	files := map[string]string{
		"query.go":  query,
		"driver.go": driver,
		"go.mod":    "module generatedquery\n\ngo 1.22\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return "", fmt.Errorf("native: write %s: %w", name, err)
		}
	}
	tmp := fmt.Sprintf("%s.tmp%d", target, os.Getpid())
	// Built cgo-free so the binary works wherever the go toolchain does.
	cmd := exec.Command("go", "build", "-o", tmp)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("native: go build: %v\n%s", err, out)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("native: install artifact: %w", err)
	}
	return target, nil
}
