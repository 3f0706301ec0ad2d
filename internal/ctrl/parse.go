package ctrl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"packetshader/internal/packet"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

// ParseScript reads the .psc command language: one command per line,
// each prefixed with a virtual-time offset from the attach instant.
//
//	# pshaderd command script
//	@1ms   route add 10.1.0.0/16 via 3
//	@1ms   route del 10.2.0.0/16
//	@1ms   route replace 10.3.0.0/16 via 2
//	@2ms   set chunkcap 64
//	@2ms   set gathermax 4
//	@2ms   set opportunistic on
//	@3ms   port 2 down
//	@3ms   gpu 0 fail
//	@3ms   pcie 1 retrain 2
//	@3ms   rxburst 5 250us
//	@4ms   port 2 up
//	@4ms   gpu 0 repair
//	@4ms   pcie 1 restore
//	@4ms   stats
//	@5ms   metrics
//
// Grammar, one command per line:
//
//	line    = "@" dur command
//	command = "route" ("add"|"replace") prefix "via" hop | "route" "del" prefix
//	        | "set" ("chunkcap"|"gathermax") count | "set" "opportunistic" ("on"|"off")
//	        | "port" index ("up"|"down")
//	        | "gpu" index ("fail"|"repair")
//	        | "pcie" index ("retrain" count | "restore")
//	        | "rxburst" index dur
//	        | "stats" | "metrics"
//
// dur is an integer or decimal value with a ps/ns/us/ms/s unit, between
// zero and 10⁶ s (rxburst wants it positive); index (a port or NUMA
// node) is 0..65535; count (a cap or β-divisor) is 1..65535; hop is
// 0..65535; prefix is a.b.c.d/len with len 0..32 and no host bits set.
// Whether an index names a port or node the router has is checked when
// the script is attached. Blank lines and `#` comments are ignored.
// Consecutive route lines with the same offset coalesce into one batch
// command, so a rebuild-strategy FIB pays one rebuild for the group —
// to force separate batches, separate the lines with a different offset
// or any non-route command.
func ParseScript(r io.Reader) (*Script, error) {
	s := NewScript()
	sc := bufio.NewScanner(r)
	lineNo := 0
	// Pending route batch being coalesced: valid when batchOpen.
	var batch Command
	batchOpen := false
	flush := func() {
		if batchOpen {
			s.Add(batch)
			batchOpen = false
		}
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !strings.HasPrefix(fields[0], "@") {
			return nil, fmt.Errorf("line %d: command must start with an @offset, got %q", lineNo, fields[0])
		}
		at, err := parseDuration(fields[0][1:])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		cmd, err := parseCommand(at, fields[1:])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if cmd.Op == OpRoute {
			if batchOpen && batch.At == cmd.At {
				batch.Routes = append(batch.Routes, cmd.Routes...)
				continue
			}
			flush()
			batch = cmd
			batchOpen = true
			continue
		}
		flush()
		s.Add(cmd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return s, nil
}

// parseCommand parses the fields after the @offset.
func parseCommand(at sim.Duration, f []string) (Command, error) {
	if len(f) == 0 {
		return Command{}, fmt.Errorf("missing command after offset")
	}
	switch f[0] {
	case "route":
		return parseRoute(at, f[1:])
	case "set":
		return parseSet(at, f[1:])
	case "port":
		port, up, err := parseTarget(f, "port", "up", "down")
		if err != nil {
			return Command{}, err
		}
		return PortAdmin(at, port, up), nil
	case "gpu":
		node, up, err := parseTarget(f, "node", "repair", "fail")
		if err != nil {
			return Command{}, err
		}
		return GPU(at, node, up), nil
	case "pcie":
		if len(f) < 3 {
			return Command{}, fmt.Errorf("usage: pcie <node> retrain <div>|restore")
		}
		node, err := parseUint16("node", f[1], 0)
		if err != nil {
			return Command{}, err
		}
		switch {
		case f[2] == "restore" && len(f) == 3:
			return PCIeRestore(at, node), nil
		case f[2] == "retrain" && len(f) == 4:
			div, err := parseUint16("divisor", f[3], 1)
			if err != nil {
				return Command{}, err
			}
			return PCIeRetrain(at, node, div), nil
		default:
			return Command{}, fmt.Errorf("usage: pcie <node> retrain <div>|restore")
		}
	case "rxburst":
		if len(f) != 3 {
			return Command{}, fmt.Errorf("usage: rxburst <port> <duration>")
		}
		port, err := parseUint16("port", f[1], 0)
		if err != nil {
			return Command{}, err
		}
		dur, err := parseDuration(f[2])
		if err != nil {
			return Command{}, err
		}
		if dur <= 0 {
			return Command{}, fmt.Errorf("rxburst duration %q: must be positive", f[2])
		}
		return RxBurst(at, port, dur), nil
	case "stats":
		if len(f) != 1 {
			return Command{}, fmt.Errorf("stats takes no arguments")
		}
		return Stats(at), nil
	case "metrics":
		if len(f) != 1 {
			return Command{}, fmt.Errorf("metrics takes no arguments")
		}
		return Metrics(at), nil
	default:
		return Command{}, fmt.Errorf("unknown command %q", f[0])
	}
}

func parseRoute(at sim.Duration, f []string) (Command, error) {
	if len(f) == 0 {
		return Command{}, fmt.Errorf("usage: route add|del|replace <prefix> [via <hop>]")
	}
	switch f[0] {
	case "add", "replace":
		act := ActAdd
		if f[0] == "replace" {
			act = ActReplace
		}
		if len(f) != 4 || f[2] != "via" {
			return Command{}, fmt.Errorf("usage: route %s a.b.c.d/len via <hop>", f[0])
		}
		p, err := parsePrefix(f[1])
		if err != nil {
			return Command{}, err
		}
		hop, err := parseUint16("next hop", f[3], 0)
		if err != nil {
			return Command{}, err
		}
		return Command{At: at, Op: OpRoute,
			Routes: []RouteUpdate{{Act: act, Prefix: p, NextHop: uint16(hop)}}}, nil
	case "del":
		if len(f) != 2 {
			return Command{}, fmt.Errorf("usage: route del a.b.c.d/len")
		}
		p, err := parsePrefix(f[1])
		if err != nil {
			return Command{}, err
		}
		return RouteDel(at, p), nil
	default:
		return Command{}, fmt.Errorf("unknown route action %q (want add, del or replace)", f[0])
	}
}

func parseSet(at sim.Duration, f []string) (Command, error) {
	if len(f) != 2 {
		return Command{}, fmt.Errorf("usage: set chunkcap|gathermax|opportunistic <value>")
	}
	switch f[0] {
	case "chunkcap", "gathermax":
		n, err := parseUint16(f[0], f[1], 1)
		if err != nil {
			return Command{}, err
		}
		if f[0] == "chunkcap" {
			return SetChunkCap(at, n), nil
		}
		return SetGatherMax(at, n), nil
	case "opportunistic":
		on, err := parseChoice(f[1], "on", "off")
		if err != nil {
			return Command{}, err
		}
		return SetOpportunistic(at, on), nil
	default:
		return Command{}, fmt.Errorf("unknown knob %q (want chunkcap, gathermax or opportunistic)", f[0])
	}
}

// parseTarget parses `<verb> <index> <yes|no>`, the shape port and gpu
// share; what names the index in errors.
func parseTarget(f []string, what, yes, no string) (int, bool, error) {
	if len(f) != 3 {
		return 0, false, fmt.Errorf("usage: %s <%s> %s|%s", f[0], what, yes, no)
	}
	n, err := parseUint16(what, f[1], 0)
	if err != nil {
		return 0, false, err
	}
	on, err := parseChoice(f[2], yes, no)
	return n, on, err
}

// parseChoice maps the word yes to true and the word no to false.
func parseChoice(s, yes, no string) (bool, error) {
	switch s {
	case yes:
		return true, nil
	case no:
		return false, nil
	default:
		return false, fmt.Errorf("%q: want %s or %s", s, yes, no)
	}
}

// parseUint16 parses a decimal in min..65535 (what names the argument
// in the error).
func parseUint16(what, s string, min int) (int, error) {
	n, err := strconv.ParseUint(s, 10, 16)
	if err != nil || int(n) < min {
		return 0, fmt.Errorf("%s %q: want an integer in %d..65535", what, s, min)
	}
	return int(n), nil
}

// parsePrefix parses `a.b.c.d/len` and insists the host bits are zero —
// a typo'd prefix should fail loudly, not silently cover a different
// range.
func parsePrefix(s string) (route.Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return route.Prefix{}, fmt.Errorf("prefix %q: missing /len", s)
	}
	plen, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || plen > 32 {
		return route.Prefix{}, fmt.Errorf("prefix %q: length must be 0..32", s)
	}
	addr, err := parseIPv4(s[:slash])
	if err != nil {
		return route.Prefix{}, fmt.Errorf("prefix %q: %v", s, err)
	}
	p := route.Prefix{Addr: addr, Len: uint8(plen)}
	if uint32(addr)&^p.Mask() != 0 {
		return route.Prefix{}, fmt.Errorf("prefix %q: host bits set (want %v/%d)",
			s, packet.IPv4Addr(uint32(addr)&p.Mask()), plen)
	}
	return p, nil
}

// parseIPv4 parses a dotted quad into a host-order address.
func parseIPv4(s string) (packet.IPv4Addr, error) {
	var addr uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("want a dotted quad")
	}
	for _, part := range parts {
		o, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad octet %q", part)
		}
		addr = addr<<8 | uint32(o)
	}
	return packet.IPv4Addr(addr), nil
}

// psc duration units, longest spelling first so "ms" wins over "s".
var durUnits = []struct {
	suffix string
	d      sim.Duration
}{
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"ps", sim.Picosecond},
	{"s", sim.Second},
}

// maxDurSeconds bounds every parsed duration: far beyond any run, and
// small enough that attach-instant + offset cannot overflow the
// picosecond clock.
const maxDurSeconds = 1e6

// parseDuration parses an integer or decimal value with a ps/ns/us/ms/s
// unit into a virtual duration. (sim durations are picosecond integers;
// the decimal form is rounded to the nearest picosecond.)
func parseDuration(s string) (sim.Duration, error) {
	for _, u := range durUnits {
		v, ok := strings.CutSuffix(s, u.suffix)
		if !ok || v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		secs := f * u.d.Seconds()
		// The negated form also rejects NaN, which ParseFloat accepts.
		if err != nil || !(secs >= 0 && secs <= maxDurSeconds) {
			return 0, fmt.Errorf("duration %q: want a value in 0..%gs before %q", s, maxDurSeconds, u.suffix)
		}
		return sim.DurationFromSeconds(secs), nil
	}
	return 0, fmt.Errorf("duration %q: want <value><ps|ns|us|ms|s>", s)
}
