package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/tensor"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a share q of the samples at or
// below it. Samples strictly beyond it number len(sorted)-ceil(q*n).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the nearest-rank 0.5-quantile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// floatBytes views a float64 slice as its bytes, for bitwise equality.
func floatBytes(x []float64) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), len(x)*8)
}

// bitsEqual reports whether a and b hold bit-identical values.
func bitsEqual(a, b []float64) bool {
	return len(a) == len(b) && bytes.Equal(floatBytes(a), floatBytes(b))
}

// The step digests use FNV-1a constants over value bits (not memory
// bytes), so they are the same on every architecture.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds v into h byte by byte, least significant first (FNV-1a).
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashFloats folds the bits of every value of x into h. It mixes whole
// words (not bytes) to stay cheap on million-entry vectors.
func hashFloats(h uint64, x []float64) uint64 {
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= fnvPrime
	}
	return h
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || fields[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host is the fingerprint every result carries.
type host struct {
	CPU           string `json:"cpu"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	TensorWorkers int    `json:"tensor_workers"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOAMD64       string `json:"goamd64,omitempty"`
	Commit        string `json:"commit"`
	SourceSHA256  string `json:"source_sha256"`
}

func fingerprint(root string) host {
	h := host{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TensorWorkers: tensor.Workers(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Commit:        os.Getenv("BENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if h.GOAMD64 == "" && runtime.GOARCH == "amd64" {
		h.GOAMD64 = "v1"
	}
	sum, err := sourceDigest(root)
	if err != nil {
		sum = "error: " + err.Error()
	}
	h.SourceSHA256 = sum
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (skipping
// dot-directories such as the build directory), so a result identifies
// the code it measured even in a checkout without git metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
