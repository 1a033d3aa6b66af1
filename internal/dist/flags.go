package dist

import (
	"flag"
	"os"
	"strings"
	"time"
)

// Flags is the coordinator-side flag bundle shared by every
// sweep-driving command (figures, report, calibrate, halfprice):
// AddFlags registers the -workers/-registry/-worker-timeout/-token/
// -tls-ca/-health-interval set on the default FlagSet, and Coordinator
// turns the parsed values into a backend.
type Flags struct {
	Workers        string
	Registry       string
	Timeout        time.Duration
	Token          string
	TLSCA          string
	HealthInterval time.Duration
	Hedge          bool
	HedgeAfter     time.Duration
}

// AddFlags registers the distributed-execution flags on the default
// flag set and returns the struct their parsed values land in.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Workers, "workers", "", "comma-separated sweepd worker addresses (host:port or URL, https:// for TLS); empty = in-process execution")
	flag.StringVar(&f.Registry, "registry", "", "worker registry — a file or http(s) endpoint listing one worker address per line, re-read while the sweep runs so workers join and leave")
	flag.DurationVar(&f.Timeout, "worker-timeout", 5*time.Minute, "per-request timeout against remote workers")
	flag.StringVar(&f.Token, "token", os.Getenv(TokenEnv), "shared auth token presented to workers (default $"+TokenEnv+")")
	flag.StringVar(&f.TLSCA, "tls-ca", "", "PEM file with CA certificate(s) to trust for https:// workers (e.g. the fleet's self-signed cert)")
	flag.DurationVar(&f.HealthInterval, "health-interval", 5*time.Second, "fleet health-probe and registry re-read period")
	flag.BoolVar(&f.Hedge, "hedge", false, "hedge slow requests: once a dispatch outlives the fleet's p95 latency estimate, race a second attempt on the least-loaded other worker (first result wins)")
	flag.DurationVar(&f.HedgeAfter, "hedge-after", 0, "fixed hedge delay overriding the adaptive p95 estimate (0 = adaptive; needs -hedge)")
	return f
}

// Enabled reports whether the flags select distributed execution at
// all; when false, Coordinator returns nil and the sweep runs
// in-process.
func (f *Flags) Enabled() bool {
	return strings.TrimSpace(f.Workers) != "" || strings.TrimSpace(f.Registry) != ""
}

// Coordinator builds the coordinator the parsed flags describe. With
// neither -workers nor -registry set it returns a nil coordinator
// (leave Options.Backend nil) and a no-op closer.
func (f *Flags) Coordinator() (*Coordinator, func(), error) {
	if !f.Enabled() {
		return nil, func() {}, nil
	}
	opts := Options{
		Timeout:        f.Timeout,
		Registry:       f.Registry,
		Token:          f.Token,
		HealthInterval: f.HealthInterval,
		Hedge:          f.Hedge,
		HedgeAfter:     f.HedgeAfter,
	}
	if f.TLSCA != "" {
		tc, err := TLSConfigFromCA(f.TLSCA)
		if err != nil {
			return nil, nil, err
		}
		opts.TLS = tc
	}
	var addrs []string
	if strings.TrimSpace(f.Workers) != "" {
		addrs = strings.Split(f.Workers, ",")
	}
	c := NewCoordinator(addrs, opts)
	return c, c.Close, nil
}
