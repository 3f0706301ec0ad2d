package apps

import "packetshader/internal/obs"

// The applications export their slow-path / error counters into a
// metrics registry via core.MetricsReporter; the router snapshots them
// at dump time (Router.ObserveStats), so the hot paths keep their plain
// uint64 counters.

// ReportMetrics implements core.MetricsReporter.
func (a *IPv4Fwd) ReportMetrics(reg *obs.Registry) {
	reg.Counter("app.ipv4.slow_path").Set(a.SlowPath)
}

// ReportMetrics implements core.MetricsReporter.
func (a *IPv6Fwd) ReportMetrics(reg *obs.Registry) {
	reg.Counter("app.ipv6.slow_path").Set(a.SlowPath)
}

// ReportMetrics implements core.MetricsReporter.
func (g *IPsecGW) ReportMetrics(reg *obs.Registry) {
	reg.Counter("app.ipsec.errors").Set(g.Errors)
}
