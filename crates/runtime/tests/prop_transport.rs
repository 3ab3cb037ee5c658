//! Transport correctness tests: the pooled chunk fast path must deliver
//! byte-identical data to the boxed `send`/`recv` path for arbitrary
//! element types and sizes, and the sharded mailbox must preserve
//! FIFO-per-(source, tag) order under heavy many-to-one contention.

use fx_runtime::{run, Machine};
use proptest::prelude::*;

/// Send `data` from rank 0 to rank 1 over both transports and return
/// `(boxed, chunked, into)` as received — all three must equal `data`.
fn both_paths<T>(data: Vec<T>) -> (Vec<T>, Vec<T>, Vec<T>)
where
    T: Copy + Send + Sync + Default + std::fmt::Debug + PartialEq + 'static,
{
    let rep = run(&Machine::real(2), move |cx| {
        if cx.rank() == 0 {
            cx.send(1, 1, data.clone());
            let mut c = cx.chunk_for::<T>(data.len());
            c.push_slice(&data);
            cx.send_chunk(1, 2, c);
            let mut c = cx.chunk_for::<T>(data.len());
            c.push_slice(&data);
            cx.send_chunk(1, 3, c);
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            let boxed: Vec<T> = cx.recv(0, 1);
            let chunk = cx.recv_chunk(0, 2);
            let chunked = chunk.to_vec::<T>();
            cx.release_chunk(chunk);
            let mut into = vec![T::default(); boxed.len()];
            cx.recv_chunk_into::<T>(0, 3, &mut into);
            (boxed, chunked, into)
        }
    });
    rep.results.into_iter().nth(1).unwrap()
}

/// Three bytes, alignment 1 — exercises element sizes that are not a
/// power of two (so chunk offsets land on "odd" byte boundaries).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[repr(C)]
struct Rgb(u8, u8, u8);

/// 24 bytes, alignment 8 — a large element whose bytes must survive the
/// pool's uninitialised, recycled storage intact.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[repr(C)]
struct Wide(f64, u32, u8);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunk_equals_boxed_u8(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let (b, c, i) = both_paths(data.clone());
        prop_assert_eq!(&b, &data);
        prop_assert_eq!(&c, &data);
        prop_assert_eq!(&i, &data);
    }

    #[test]
    fn chunk_equals_boxed_u16(data in proptest::collection::vec(any::<u16>(), 0..300)) {
        let (b, c, i) = both_paths(data.clone());
        prop_assert_eq!(&b, &data);
        prop_assert_eq!(&c, &data);
        prop_assert_eq!(&i, &data);
    }

    #[test]
    fn chunk_equals_boxed_f64(data in proptest::collection::vec(any::<u64>(), 0..200)) {
        // Drive through f64 bit patterns (from u64 so NaN payloads are
        // representable and still comparable bitwise after the trip).
        let data: Vec<f64> = data.into_iter().map(f64::from_bits).collect();
        let (b, c, i) = both_paths(data.clone());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&b), bits(&data));
        prop_assert_eq!(bits(&c), bits(&data));
        prop_assert_eq!(bits(&i), bits(&data));
    }

    #[test]
    fn chunk_equals_boxed_odd_size(
        data in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
    ) {
        let data: Vec<Rgb> = data.into_iter().map(|(r, g, b)| Rgb(r, g, b)).collect();
        let (b, c, i) = both_paths(data.clone());
        prop_assert_eq!(&b, &data);
        prop_assert_eq!(&c, &data);
        prop_assert_eq!(&i, &data);
    }

    #[test]
    fn chunk_equals_boxed_wide(
        data in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..100),
    ) {
        let data: Vec<Wide> = data.into_iter().map(|(a, b, c)| Wide(a as f64, b, c)).collect();
        let (b, c, i) = both_paths(data.clone());
        prop_assert_eq!(&b, &data);
        prop_assert_eq!(&c, &data);
        prop_assert_eq!(&i, &data);
    }
}

/// 31 senders hammer rank 0's mailbox concurrently, alternating boxed
/// and chunk messages on a single shared tag. The sharded mailbox must
/// keep every (source, tag) stream FIFO even though deposits from
/// different sources race on different lanes.
#[test]
fn many_senders_one_receiver_preserves_fifo_per_source() {
    const P: usize = 32;
    const ROUNDS: u64 = 64;
    const TAG: u64 = 7;
    let rep = run(&Machine::real(P), |cx| {
        if cx.rank() == 0 {
            let mut total = 0u64;
            // Drain each sender's stream in an interleaved order so
            // queues actually build up behind the receiver.
            for round in 0..ROUNDS {
                for src in 1..P {
                    let (s, r, v) = if round % 2 == 0 {
                        let mut buf = [0u64; 3];
                        cx.recv_chunk_into::<u64>(src, TAG, &mut buf);
                        (buf[0], buf[1], buf[2])
                    } else {
                        let b: Vec<u64> = cx.recv(src, TAG);
                        (b[0], b[1], b[2])
                    };
                    assert_eq!(s, src as u64, "message from wrong lane");
                    assert_eq!(r, round, "FIFO order violated for src {src}");
                    total += v;
                }
            }
            total
        } else {
            let me = cx.rank() as u64;
            for round in 0..ROUNDS {
                let payload = [me, round, me * round];
                if round % 2 == 0 {
                    let mut c = cx.chunk_for::<u64>(3);
                    c.push_slice(&payload);
                    cx.send_chunk(0, TAG, c);
                } else {
                    cx.send(0, TAG, payload.to_vec());
                }
            }
            0
        }
    });
    let expect: u64 = (1..P as u64)
        .map(|s| (0..ROUNDS).map(|r| s * r).sum::<u64>())
        .sum();
    assert_eq!(rep.results[0], expect);
    // Per-lane accounting: rank 0 received bytes from every sender and
    // built no lane for itself; the senders, who received nothing, built
    // none at all.
    let lanes = &rep.lane_bytes[0];
    assert_eq!(lanes.iter().map(|&(src, _)| src).collect::<Vec<_>>(), (1..P).collect::<Vec<_>>());
    for &(src, b) in lanes {
        assert_eq!(b, rep.counters[src].send_bytes, "lane {src} holds what {src} sent");
    }
    assert!(rep.lane_bytes[1..].iter().all(Vec::is_empty));
}
