window.BENCHMARK_DATA = {
  "lastUpdate": 1786227578000,
  "repoUrl": "",
  "schemaVersion": 1,
  "entries": {
    "fuzz_smoke": [
      {
        "commit": {
          "id": "971407356465fc094252c22d37d87ccc20b774d3",
          "timestamp": 1786208133
        },
        "date": 1786208133000,
        "tool": "mlc",
        "profile": "release",
        "benches": [
          {
            "name": "cases50/cases_per_sec",
            "value": 928.9313284171316,
            "unit": "cases/s",
            "direction": "higher"
          },
          {
            "name": "cases50/checked_total",
            "value": 353,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "cases50/violations",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          }
        ]
      },
      {
        "commit": {
          "id": "c41f435dc2f5dc2b61d005d80fa122ecaec284e9",
          "timestamp": 1786220355
        },
        "date": 1786220355000,
        "tool": "mlc",
        "profile": "release",
        "benches": [
          {
            "name": "cases50/cases_per_sec",
            "value": 719.2369620823164,
            "unit": "cases/s",
            "direction": "higher"
          },
          {
            "name": "cases50/checked_total",
            "value": 403,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "cases50/violations",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          }
        ]
      },
      {
        "commit": {
          "id": "986c4d76e36f471784b5c6ae37cbe7c3a0869b40",
          "timestamp": 1786227578
        },
        "date": 1786227578000,
        "tool": "mlc",
        "profile": "release",
        "benches": [
          {
            "name": "cases50/cases_per_sec",
            "value": 328.09586467709687,
            "unit": "cases/s",
            "direction": "higher"
          },
          {
            "name": "cases50/checked_total",
            "value": 503,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "cases50/violations",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          }
        ]
      }
    ],
    "serve_latency": [
      {
        "commit": {
          "id": "a60ee14beb4836f37fd18cf88a885653266922d0",
          "timestamp": 1786224042
        },
        "date": 1786224042000,
        "tool": "mlc",
        "profile": "release",
        "benches": [
          {
            "name": "r200c4/p50_ms",
            "value": 0.546,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/p99_ms",
            "value": 1.456,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/req_per_sec",
            "value": 6642.866162920412,
            "unit": "req/s",
            "direction": "higher"
          },
          {
            "name": "r200c4/ok",
            "value": 200,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "r200c4/server_errors",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          },
          {
            "name": "r200c4/cache_hit_rate",
            "value": 0.9458128078817734,
            "unit": "ratio",
            "direction": "higher"
          },
          {
            "name": "r200c4/p50_ms",
            "value": 0.685,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/p99_ms",
            "value": 3.08,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/req_per_sec",
            "value": 4260.925348140503,
            "unit": "req/s",
            "direction": "higher"
          },
          {
            "name": "r200c4/ok",
            "value": 200,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "r200c4/server_errors",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          },
          {
            "name": "r200c4/cache_hit_rate",
            "value": 0.9458128078817734,
            "unit": "ratio",
            "direction": "higher"
          }
        ]
      },
      {
        "commit": {
          "id": "986c4d76e36f471784b5c6ae37cbe7c3a0869b40",
          "timestamp": 1786227578
        },
        "date": 1786227578000,
        "tool": "mlc",
        "profile": "release",
        "benches": [
          {
            "name": "r200c4/p50_ms",
            "value": 0.505,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/p99_ms",
            "value": 3.555,
            "unit": "ms",
            "direction": "lower"
          },
          {
            "name": "r200c4/req_per_sec",
            "value": 5579.029632681152,
            "unit": "req/s",
            "direction": "higher"
          },
          {
            "name": "r200c4/ok",
            "value": 200,
            "unit": "count",
            "direction": "higher"
          },
          {
            "name": "r200c4/server_errors",
            "value": 0,
            "unit": "count",
            "direction": "lower"
          },
          {
            "name": "r200c4/cache_hit_rate",
            "value": 0.9458128078817734,
            "unit": "ratio",
            "direction": "higher"
          }
        ]
      }
    ]
  }
};
