package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostInfo stamps every result with the machine and configuration it
// came from, so figures are only ever compared like for like.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	Objects    int    `json:"siteObjects"`
	SiteBytes  int64  `json:"siteBytes"`
	SiteSeed   int64  `json:"siteSeed"`
	CacheBytes int64  `json:"cacheBytes,omitempty"`
	Readers    int    `json:"readers"`
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newHostInfo() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		SiteSeed:   siteSeed,
	}
}
