// Localspeedtest exercises the real wire protocols end-to-end on loopback:
// it starts an Ookla-protocol TCP server, an ndt7 WebSocket server and an
// Xfinity-style HTTP server in-process, then runs each client against them
// — once unshaped and once through the token-bucket shaper standing in for
// the paper's tc setup (1000/100 Mbps), showing the caps take effect.
//
// Unlike the other examples it has no main_test.go: its transfers run in
// real time, about 20 s in all, too slow for the unit-test suite. The
// protocol and shaper packages' own tests cover the same code.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/clasp-measurement/clasp/internal/shaper"
	"github.com/clasp-measurement/clasp/internal/speedtest"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/speedtest/xfinity"
)

func main() {
	// --- servers -----------------------------------------------------------
	ooklaSrv, err := ookla.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ooklaSrv.Close()

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	ndtHandler := &ndt7.Handler{Duration: 2 * time.Second}
	mux.Handle(ndt7.DownloadPath, ndtHandler)
	mux.Handle(ndt7.UploadPath, ndtHandler)
	xfHandler := &xfinity.Handler{}
	mux.Handle(xfinity.LatencyPath, xfHandler)
	mux.Handle(xfinity.DownloadPath, xfHandler)
	mux.Handle(xfinity.UploadPath, xfHandler)
	go http.Serve(httpLn, mux)

	httpAddr := httpLn.Addr().String()
	fmt.Printf("ookla server on %s, http (ndt7+xfinity) on %s\n\n", ooklaSrv.Addr(), httpAddr)

	// shapedDial caps the connection like the paper's tc configuration
	// (here 200/50 Mbps so the cap is visible on loopback).
	shapedDial := func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return shaper.NewConn(conn, shaper.Options{ReadMbps: 200, WriteMbps: 50}), nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	show := func(name string, res speedtest.Result, err error) {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s latency %6.2f ms   down %8.1f Mbps   up %8.1f Mbps\n",
			name, res.LatencyMs, res.DownloadMbps, res.UploadMbps)
	}

	// --- unshaped ------------------------------------------------------------
	oc := ookla.NewClient(ookla.Config{DownloadDuration: 2 * time.Second, UploadDuration: 2 * time.Second})
	res, err := oc.Run(ctx, ooklaSrv.Addr().String())
	show("ookla (unshaped)", res, err)

	nc := ndt7.NewClient(ndt7.Config{Duration: 2 * time.Second})
	res, err = nc.Run(ctx, httpAddr)
	show("ndt7 (unshaped)", res, err)

	xc := xfinity.NewClient(xfinity.Config{Duration: 2 * time.Second, Connections: 4, ObjectBytes: 4 << 20})
	res, err = xc.Run(ctx, httpAddr)
	show("xfinity (unshaped)", res, err)

	// --- shaped at 200/50 Mbps ----------------------------------------------
	fmt.Println()
	ocs := ookla.NewClient(ookla.Config{DownloadDuration: 2 * time.Second, UploadDuration: 2 * time.Second})
	ocs.Dial = shapedDial
	res, err = ocs.Run(ctx, ooklaSrv.Addr().String())
	show("ookla (200/50 shaped)", res, err)

	ncs := ndt7.NewClient(ndt7.Config{Duration: 2 * time.Second, Dial: shapedDial})
	res, err = ncs.Run(ctx, httpAddr)
	show("ndt7 (200/50 shaped)", res, err)

	fmt.Println("\nshaped runs must report ~200 Mbps down / ~50 Mbps up at most")
}
