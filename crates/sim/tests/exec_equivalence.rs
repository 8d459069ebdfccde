//! Bytecode vs tree-walk equivalence at the whole-simulation level.
//!
//! The compiled dispatch loop must be *unobservable*: identical traces,
//! logs, final signal values, `$random` draws and runtime faults. The
//! executor is the `exec` field of each simulator's [`SimConfig`], so
//! the two can run side by side in one process.

use cirfix_parser::parse;
use cirfix_sim::{ExecMode, ProbeSpec, SimConfig, SimError, Simulator};

struct Observed {
    outcome: Result<bool, SimError>,
    now: u64,
    log: Vec<String>,
    csv: String,
    signals: Vec<(String, String)>,
}

fn observe(case: &Case, exec: ExecMode) -> Observed {
    let file = parse(case.src).expect("parse");
    let config = SimConfig {
        exec,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&file, case.top, config).expect("elaborate");
    let probe = (!case.probe.is_empty()).then(|| {
        sim.add_probe(&ProbeSpec::periodic(
            case.probe.iter().map(|s| s.to_string()).collect(),
            0,
            1,
        ))
        .expect("probe")
    });
    let outcome = sim.run().map(|o| o.finished);
    Observed {
        outcome,
        now: sim.now(),
        log: sim.log().to_vec(),
        csv: probe.map_or_else(String::new, |p| sim.probe_trace(p).to_csv()),
        signals: case
            .finals
            .iter()
            .map(|s| {
                let v = sim
                    .signal(s)
                    .map_or_else(|| "<missing>".into(), |v| v.to_string());
                (s.to_string(), v)
            })
            .collect(),
    }
}

struct Case {
    name: &'static str,
    src: &'static str,
    top: &'static str,
    probe: &'static [&'static str],
    finals: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "counter_with_reset",
        src: r#"module t;
            reg clk, rst;
            reg [7:0] n;
            wire [7:0] next = rst ? 8'd0 : n + 8'd1;
            initial begin clk = 0; rst = 1; #7 rst = 0; #60 $finish; end
            always #5 clk = !clk;
            always @(posedge clk) n <= next;
        endmodule"#,
        top: "t",
        probe: &["n", "clk", "rst"],
        finals: &["n"],
    },
    Case {
        name: "four_state_operators",
        src: r#"module t;
            reg [3:0] a, b;
            reg [3:0] y0, y1, y2, y3, y4;
            reg r0, r1, r2;
            initial begin
                a = 4'b10x1; b = 4'b0z10;
                y0 = a & b; y1 = a | b; y2 = a ^ b; y3 = ~a; y4 = a + b;
                r0 = &a; r1 = |b; r2 = ^a;
                #1 a = 4'd9; b = 4'd3;
                y0 = a * b; y1 = a / b; y2 = a % b; y3 = a << b[1:0]; y4 = a >> 1;
                r0 = a < b; r1 = a == b; r2 = a === b;
                #1 $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["y0", "y1", "y2", "y3", "y4", "r0", "r1", "r2"],
        finals: &["y0", "y1", "y2", "y3", "y4"],
    },
    Case {
        name: "case_flavours_and_part_selects",
        src: r#"module t;
            parameter W = 8;
            reg [W-1:0] s;
            reg [3:0] y;
            reg [1:0] idx;
            always @(s or idx)
                casez (s[3:0])
                    4'b1???: y = {2'b00, s[1:0]};
                    4'b01??: y = {4{s[0]}};
                    default: y = {idx, 2'b11};
                endcase
            initial begin
                idx = 2'b10;
                s = 8'h0f; #1 ;
                s = 8'h84; #1 ;
                s = 8'h46; #1 ;
                $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["y", "s"],
        finals: &["y"],
    },
    Case {
        name: "random_and_time_draw_order",
        src: r#"module t;
            reg [31:0] a, b;
            reg [63:0] tm;
            integer i;
            initial begin
                for (i = 0; i < 4; i = i + 1) begin
                    a = $random;
                    b = $random ^ a;
                    #3 tm = $time;
                end
                $display("a=%h b=%h t=%0d", a, b, tm);
                $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["a", "b"],
        finals: &["a", "b", "tm"],
    },
    Case {
        name: "memories_and_dynamic_indexing",
        src: r#"module t;
            reg [7:0] mem [0:7];
            reg [7:0] out;
            reg [2:0] addr;
            integer i;
            initial begin
                for (i = 0; i < 8; i = i + 1)
                    mem[i] = i * 3;
                addr = 3'd5;
                out = mem[addr];
                #1 addr = 3'd2;
                out = mem[addr] + mem[7];
                #1 $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["out"],
        finals: &["out"],
    },
    Case {
        name: "nonblocking_with_intra_delay",
        src: r#"module t;
            reg [3:0] q;
            reg [3:0] d;
            initial begin
                d = 4'd7;
                q <= #4 d;
                d = 4'd2;
                #10 $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["q", "d"],
        finals: &["q", "d"],
    },
    Case {
        name: "replication_and_repeat_loops",
        src: r#"module t;
            reg [11:0] w;
            reg [3:0] n;
            initial begin
                n = 4'd0;
                repeat (5) n = n + 1;
                w = {3{n}};
                #1 $finish;
            end
        endmodule"#,
        top: "t",
        probe: &["w", "n"],
        finals: &["w", "n"],
    },
    // Runtime faults must carry identical messages through both paths.
    Case {
        name: "fault_unknown_replication_count",
        src: r#"module t;
            reg [3:0] n;
            reg [7:0] w;
            initial begin
                #1 w = {n[1:0]{2'b01}};
            end
        endmodule"#,
        top: "t",
        probe: &[],
        finals: &[],
    },
    Case {
        name: "fault_replication_count_too_large",
        src: r#"module t;
            reg [15:0] n;
            reg [7:0] w;
            initial begin
                n = 16'd5000;
                #1 w = {n{1'b1}};
            end
        endmodule"#,
        top: "t",
        probe: &[],
        finals: &[],
    },
];

fn assert_identical(case: &Case, fast: &Observed, slow: &Observed) {
    assert_eq!(fast.outcome, slow.outcome, "[{}] outcome", case.name);
    if case.name.starts_with("fault_") {
        assert!(
            matches!(fast.outcome, Err(SimError::Runtime { .. })),
            "[{}] expected a runtime fault, got {:?}",
            case.name,
            fast.outcome
        );
    }
    assert_eq!(fast.now, slow.now, "[{}] final time", case.name);
    assert_eq!(fast.log, slow.log, "[{}] $display/$monitor log", case.name);
    assert_eq!(fast.csv, slow.csv, "[{}] probe trace", case.name);
    assert_eq!(fast.signals, slow.signals, "[{}] final values", case.name);
}

#[test]
fn bytecode_and_tree_walk_are_observably_identical() {
    for case in CASES {
        let fast = observe(case, ExecMode::Bytecode);
        let slow = observe(case, ExecMode::TreeWalk);
        assert_identical(case, &fast, &slow);
    }
}

/// Both executors running at once on two threads: nothing either one
/// selects is shared with the other.
#[test]
fn bytecode_and_tree_walk_agree_when_run_concurrently() {
    let run_all = |exec| CASES.iter().map(|case| observe(case, exec)).collect();
    let (fast, slow): (Vec<Observed>, Vec<Observed>) = std::thread::scope(|s| {
        let fast = s.spawn(|| run_all(ExecMode::Bytecode));
        let slow = s.spawn(|| run_all(ExecMode::TreeWalk));
        (fast.join().unwrap(), slow.join().unwrap())
    });
    for ((case, fast), slow) in CASES.iter().zip(&fast).zip(&slow) {
        assert_identical(case, fast, slow);
    }
}
