//! The binary data response (the `.dods` payload).
//!
//! Real DAP 2 uses XDR; we use an equivalent, self-describing big-endian
//! framing (magic + per-variable name/dims/values). What matters for the
//! reproduction is the *shape* of the protocol — a binary stream whose size
//! is proportional to the requested subset, so the simulated WAN transport
//! can charge realistic transfer times per byte.

use crate::DapError;
use applab_array::{NdArray, Variable};

const MAGIC: &[u8; 8] = b"ALDODS01";

/// Fewest bytes one encoded variable can take: name length, rank and
/// value count. Bounds the reservation for a header-declared count.
const MIN_VARIABLE_BYTES: usize = 2 + 2 + 8;
/// Fewest bytes one encoded dimension can take: name length and length.
const MIN_DIM_BYTES: usize = 2 + 8;

/// Encode a set of variables (already sliced to the requested subset).
pub fn encode(variables: &[Variable]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        16 + variables
            .iter()
            .map(|v| v.data.len() * 8 + 64)
            .sum::<usize>(),
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(variables.len() as u32).to_be_bytes());
    for v in variables {
        put_str(&mut buf, &v.name);
        buf.extend_from_slice(&(v.dims.len() as u16).to_be_bytes());
        for (dim, &len) in v.dims.iter().zip(v.data.shape()) {
            put_str(&mut buf, dim);
            buf.extend_from_slice(&(len as u64).to_be_bytes());
        }
        buf.extend_from_slice(&(v.data.len() as u64).to_be_bytes());
        for &x in v.data.data() {
            buf.extend_from_slice(&x.to_be_bytes());
        }
    }
    buf
}

/// Decode a `.dods` payload back into variables. The payload comes from
/// outside the process, so every length it declares is checked against
/// the bytes that are actually there before anything is read or reserved.
pub fn decode(mut payload: &[u8]) -> Result<Vec<Variable>, DapError> {
    let err = |m: &str| DapError::Wire(format!("DODS: {m}"));
    let (Some(magic), Some(count)) = (take::<8>(&mut payload), take::<4>(&mut payload)) else {
        return Err(err("truncated header"));
    };
    if &magic != MAGIC {
        return Err(err("bad magic"));
    }
    let count = u32::from_be_bytes(count) as usize;
    let mut out = Vec::with_capacity(count.min(payload.len() / MIN_VARIABLE_BYTES));
    for _ in 0..count {
        let name = get_str(&mut payload).ok_or_else(|| err("truncated name"))?;
        let rank = take(&mut payload).ok_or_else(|| err("truncated rank"))?;
        let rank = u16::from_be_bytes(rank) as usize;
        let reserve = rank.min(payload.len() / MIN_DIM_BYTES);
        let (mut dims, mut shape) = (Vec::with_capacity(reserve), Vec::with_capacity(reserve));
        for _ in 0..rank {
            let dim = get_str(&mut payload).ok_or_else(|| err("truncated dim"))?;
            let len = take(&mut payload).ok_or_else(|| err("truncated dim length"))?;
            dims.push(dim);
            shape.push(u64::from_be_bytes(len) as usize);
        }
        let n = take(&mut payload).ok_or_else(|| err("truncated value count"))?;
        let n = u64::from_be_bytes(n) as usize;
        let values = n
            .checked_mul(8)
            .filter(|&bytes| bytes <= payload.len())
            .ok_or_else(|| err("truncated values"))?;
        let (values, rest) = payload.split_at(values);
        payload = rest;
        let data = values
            .as_chunks()
            .0
            .iter()
            .map(|&raw| f64::from_be_bytes(raw))
            .collect();
        let array =
            NdArray::from_vec(shape, data).map_err(|e| err(&format!("inconsistent shape: {e}")))?;
        out.push(Variable::new(name, dims, array));
    }
    Ok(out)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// The next `N` bytes of `buf`, or `None` when fewer remain.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    let len = u16::from_be_bytes(take(buf)?) as usize;
    if buf.len() < len {
        return None;
    }
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(raw.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Variable> {
        vec![
            Variable::new(
                "LAI",
                vec!["time".into(), "lat".into()],
                NdArray::from_vec(vec![2, 3], vec![0.5, 1.0, f64::NAN, 2.0, 2.5, 3.0]).unwrap(),
            ),
            Variable::new(
                "time",
                vec!["time".into()],
                NdArray::vector(vec![0.0, 10.0]),
            ),
        ]
    }

    #[test]
    fn roundtrip() {
        let vars = sample();
        let payload = encode(&vars);
        let decoded = decode(&payload).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].name, "LAI");
        assert_eq!(decoded[0].dims, vec!["time".to_string(), "lat".to_string()]);
        assert_eq!(decoded[0].data.shape(), &[2, 3]);
        assert!(decoded[0].data.get(&[0, 2]).unwrap().is_nan());
        assert_eq!(decoded[0].data.get(&[1, 2]).unwrap(), 3.0);
        assert_eq!(decoded[1].data.data(), &[0.0, 10.0]);
    }

    #[test]
    fn size_is_proportional_to_subset() {
        let small = encode(&[Variable::new(
            "x",
            vec!["t".into()],
            NdArray::zeros(vec![10]),
        )]);
        let large = encode(&[Variable::new(
            "x",
            vec!["t".into()],
            NdArray::zeros(vec![10_000]),
        )]);
        assert!(large.len() > small.len() * 500);
    }

    #[test]
    fn rejects_corrupt_payloads() {
        assert!(decode(b"short").is_err());
        assert!(decode(b"WRONGMAG\0\0\0\0").is_err());
        let good = encode(&sample());
        assert!(decode(&good[..good.len() - 5]).is_err());
        // A header that declares more than the payload can hold must be
        // rejected, neither reserved nor multiplied out: one variable `x`
        // of rank 0 declaring 2^61 values (2^61 · 8 overflows usize), with
        // one value present.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&1u32.to_be_bytes());
        huge.extend_from_slice(&1u16.to_be_bytes());
        huge.push(b'x');
        huge.extend_from_slice(&0u16.to_be_bytes());
        huge.extend_from_slice(&(1u64 << 61).to_be_bytes());
        huge.extend_from_slice(&1.0f64.to_be_bytes());
        assert_eq!(huge.len(), 33);
        assert!(matches!(decode(&huge), Err(DapError::Wire(_))));
        // u32::MAX declared variables in a 12-byte payload.
        let mut many = MAGIC.to_vec();
        many.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&many), Err(DapError::Wire(_))));
        // Two dimensions whose lengths multiply past usize.
        let mut wide = MAGIC.to_vec();
        wide.extend_from_slice(&1u32.to_be_bytes());
        wide.extend_from_slice(&1u16.to_be_bytes());
        wide.push(b'x');
        wide.extend_from_slice(&2u16.to_be_bytes());
        for _ in 0..2 {
            wide.extend_from_slice(&1u16.to_be_bytes());
            wide.push(b'd');
            wide.extend_from_slice(&(1u64 << 33).to_be_bytes());
        }
        wide.extend_from_slice(&0u64.to_be_bytes());
        assert!(matches!(decode(&wide), Err(DapError::Wire(_))));
    }

    #[test]
    fn empty_variable_list() {
        let payload = encode(&[]);
        assert_eq!(decode(&payload).unwrap().len(), 0);
    }
}
