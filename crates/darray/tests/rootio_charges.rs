//! Root I/O on chunks charges what the boxed collectives charged: in a
//! simulated run per executor, `scatter_from_root` then `gather_to_root`
//! leave every processor at the bit-identical virtual time, with the
//! same message and byte counts, as the root loop of `send_v`s and the
//! `Cx::gather` of `local().to_vec()` they replace — and only the new
//! path moves chunks. Under `DataflowMode::Validate` as well, where the
//! scatter must record an opaque write and the gather a read.

use fx_core::{spmd, Cx, DataflowMode, Machine, MachineModel};
use fx_darray::{gather_to_root, scatter_from_root, DArray, DArray1, DArray2, DimMap, Dist};
use fx_runtime::Executor;

const ROOT: usize = 1;

/// `[now after the scatter, now after the gather]` and what the root got.
type Seen = ([f64; 2], Option<Vec<f64>>);

fn chunked<const N: usize>(cx: &mut Cx, a: &mut DArray<f64, N>, data: &[f64]) -> Seen {
    scatter_from_root(cx, a, ROOT, (cx.id() == ROOT).then_some(data));
    let whole = 0..data.len();
    assert!(a.versions().borrow().tainted(whole), "scatter records an opaque write");
    let reads = |a: &DArray<f64, N>| a.versions().borrow().intervals()[0].read_ver;
    let (before, t1) = (reads(a), cx.now());
    let out = gather_to_root(cx, a, ROOT);
    assert!(reads(a) > before, "gather records a read");
    ([t1, cx.now()], out)
}

/// The parent commit's root I/O: tiles boxed as `Vec`s; the scatter skips
/// empty members, the gather does not. `tile_of(v)` lists the row-major
/// global positions of virtual rank `v`'s tile in local order.
fn boxed<const N: usize>(
    cx: &mut Cx,
    a: &mut DArray<f64, N>,
    data: &[f64],
    tile_of: impl Fn(usize) -> Vec<usize>,
) -> Seen {
    let tag = cx.next_op_tag();
    let tile = |v| tile_of(v).into_iter().map(|at| data[at]).collect::<Vec<f64>>();
    if cx.id() == ROOT {
        for v in (0..cx.nprocs()).filter(|&v| v != ROOT) {
            let buf = tile(v);
            if !buf.is_empty() {
                cx.send_v(v, tag, buf);
            }
        }
        a.local_mut().copy_from_slice(&tile(ROOT));
    } else if !a.local().is_empty() {
        let buf: Vec<f64> = cx.recv_v(ROOT, tag);
        a.local_mut().copy_from_slice(&buf);
    }
    let t1 = cx.now();
    let out = cx.gather(ROOT, a.local().to_vec()).map(|parts| {
        let mut out = vec![0.0; data.len()];
        for (v, part) in parts.iter().enumerate() {
            tile_of(v).into_iter().zip(part).for_each(|(at, x)| out[at] = *x);
        }
        out
    });
    ([t1, cx.now()], out)
}

/// Run both paths on `machine` over the array `make` builds and compare.
fn compare<const N: usize>(
    machine: &Machine,
    total: usize,
    make: impl Fn(&mut Cx) -> DArray<f64, N> + Send + Sync,
    tile_of: impl Fn(usize) -> Vec<usize> + Send + Sync,
) {
    let data: Vec<f64> = (0..total).map(|i| i as f64 * 0.5 - 3.0).collect();
    let new = spmd(machine, |cx| {
        let mut a = make(cx);
        chunked(cx, &mut a, &data)
    });
    let old = spmd(machine, |cx| {
        let mut a = make(cx);
        boxed(cx, &mut a, &data, &tile_of)
    });
    assert_eq!(new.results[ROOT].1.as_ref(), Some(&data));
    for (v, (n, o)) in new.results.iter().zip(&old.results).enumerate() {
        assert_eq!(n.0.map(f64::to_bits), o.0.map(f64::to_bits), "virtual times of processor {v}");
        assert_eq!(n.1, o.1, "gathered data on processor {v}");
    }
    for (v, (n, o)) in new.counters.iter().zip(&old.counters).enumerate() {
        assert_eq!((n.sends, n.send_bytes), (o.sends, o.send_bytes), "traffic of processor {v}");
        assert_eq!((n.recvs, n.recv_bytes), (o.recvs, o.recv_bytes), "receipts of processor {v}");
        assert_eq!(o.chunk_msgs, 0, "the boxed path moves no chunk");
        assert_eq!(n.chunk_msgs, n.sends, "every tile of the new path is a chunk");
    }
    assert!(new.total().chunk_msgs > 0);
}

#[test]
fn chunked_root_io_charges_what_the_boxed_collectives_charged() {
    const P: usize = 5;
    for executor in [Executor::Threaded, Executor::Pooled { workers: 2 }] {
        for dataflow in [DataflowMode::On, DataflowMode::Validate] {
            let machine = Machine::simulated(P, MachineModel::paragon())
                .with_executor(executor)
                .with_dataflow(dataflow);
            // A cyclic vector short enough that the last member owns
            // nothing: the scatter skips it, the gather does not.
            let n = P - 1;
            let map = DimMap::new(n, P, Dist::Cyclic);
            compare(
                &machine,
                n,
                |cx| DArray1::new(cx, &cx.group(), n, Dist::Cyclic, 0.0),
                |v| map.owned_globals(v).collect(),
            );
            // A row-block matrix: tiles are whole rows.
            let (rows, cols) = (7, 3);
            let rmap = DimMap::new(rows, P, Dist::Block);
            compare(
                &machine,
                rows * cols,
                |cx| DArray2::new(cx, &cx.group(), [rows, cols], (Dist::Block, Dist::Star), 0.0),
                |v| rmap.owned_globals(v).flat_map(|r| r * cols..(r + 1) * cols).collect(),
            );
        }
    }
}
