//! Known answers for every stream `btadt_types::rng` hands out.
//!
//! Every committed report is a function of these words, so a change to the
//! key expansion, the block function, the word order or a sampling helper
//! must fail here before it silently re-seeds every experiment.  The values
//! were captured from the generators before they moved into `rng`.

use btadt_types::rng::{mix64, ChaCha8, SplitMix64};
use btadt_types::workload::Workload;

#[rustfmt::skip]
const CHACHA_0_0: [u64; 40] = [
    0xbf94d1332d8ee5e8, 0x3a738775a6da5a01, 0x3d46ff10c143ee06, 0x17c6ab23e9f6424f,
    0x5ce2479b2fb6898b, 0x0ae8099f86bff662, 0x5f2f09fdc72f90bd, 0x95d53efa28e5a01f,
    0x1131e62b94efaf48, 0x9eec7e5517d7a4e4, 0xe553e127cd4c18d1, 0xb9d551f13505e613,
    0x0a1ffcc2d28d82a2, 0xfc9216baf64a441d, 0xb3c61fd54b017931, 0xe857b19d23eb502b,
    0x5a512cb91bfcd6d6, 0x029e379944766985, 0xca6410bd3c8b61fe, 0xa2c1439dbfdc08ce,
    0x0b1b48bc9b51bc00, 0x88613706f73472d7, 0x7e63aa459362d706, 0x04630a15aee6c4a7,
    0x285745104d470010, 0xe0098b0d0575729d, 0xfe536d452eaffde3, 0x1195a96bd9c15c54,
    0x2fd9a984c31b76c0, 0x0093931e2d80213e, 0x306af4fce9511800, 0x3fc03cba03f09f08,
    0x8585c900453ca227, 0x32a9158fc564ad02, 0xae547f50544aa85c, 0x4a299675d3048f4d,
    0xf72cafc26d8977eb, 0x607c18a557b4fcd9, 0x7be02784301441aa, 0x835598457c8d1413,
];

#[rustfmt::skip]
const CHACHA_42_0: [u64; 40] = [
    0x31159ef987c91afc, 0x17559844b4169001, 0xf7d0afbf9ad9a69f, 0xb9207ad5fd37495a,
    0x072db0db61329c11, 0x4051bc3beca26593, 0xbfaab970cc4703b6, 0xaff5425d8f89d223,
    0xf68755126b947e05, 0x26706e48953f9601, 0x54ff14b56a9f2b2f, 0x9cf9c5f7150e06ce,
    0xe3507e348e1d738c, 0xc89c02054c28e1a6, 0xb51fdc8f38520378, 0x6384b6feb1c896b5,
    0xa1d6606a13e28956, 0x009499f6c62320de, 0x66e879a9eecf5513, 0xc96ff51349ee5d3a,
    0x21ad4a9531d6b0ea, 0x1610979f93879897, 0xc32d7ad1b7c99eb3, 0x6f096b0dc7f030f3,
    0x1d32dd7d6777749f, 0xf79aed1b4b6aa339, 0x0b6c83426ad82589, 0x987da5723a4de16e,
    0x2b38cfc9c0a42ce1, 0xaac81189c41d2633, 0xefd897c00d6b6a1c, 0xea8920dcbeefb700,
    0x94ad96ac7e5f1558, 0x156019122d4bb141, 0x20ecc5e79765faf7, 0x9b6cf9fed64159dd,
    0x12a33a245363135a, 0xf3da0133bab0636b, 0xee7904ce416f5457, 0x44303e54ce884231,
];

#[rustfmt::skip]
const CHACHA_7_3: [u64; 40] = [
    0x8df67343db9b77c2, 0xf674d78455f6c960, 0x6bf53fb3d4239e23, 0xdcd55f5e796904a5,
    0xe0b611da8ff01279, 0x1c4abda761151399, 0x5359b906a422aeae, 0x142f9eecfc209739,
    0x16824f3449593901, 0x1d7e0d547b49d061, 0xc5e819129f130dd0, 0x5241454925084fcb,
    0x3aec01551410820d, 0xa1614e9c8b84cff2, 0xabff7eeb6198422c, 0xc5cea37903113a26,
    0x1918120c1f0c94b1, 0xb8a1f4b63c77f7d1, 0x0d13008e01018c27, 0xc1286adc32ab2ebf,
    0x7d0629ef6e14346a, 0xc783c8fc5e37a317, 0x0f481e0a83de566b, 0x7de371066e2f1d7c,
    0xf70100d2a7a1cf8d, 0x4265433edd9617ee, 0x5c33573174c64abd, 0x5fe8e0d21f464fd5,
    0x25ef53eafd726178, 0xd32c2252d8e55b7a, 0x7798e77e64aa3a91, 0xf98ad860d63da91d,
    0xd389febbf570c651, 0x61439e61a3881191, 0xf6e46fbe83e013a9, 0x13beff9d0bfc84d9,
    0xe81f1e06b7067e97, 0x4888c8a3347bf499, 0x43b1cdc597e7b7f4, 0x39e110606a2c4f09,
];

#[rustfmt::skip]
const CHACHA_7_4: [u64; 40] = [
    0xc37f9a50f8e6c60f, 0xc591c338a62d5fe7, 0x0f91f2ff902bbc8f, 0x11df8f0392fe9d19,
    0x2c464961fc4fda74, 0x3ae335a3cb9d2c3b, 0x0b0ce8f5caa30aa2, 0xfda1c99816fc1f35,
    0xffb609689f6cdc6b, 0x7937c8f8a01c1673, 0x0fd82b5f4f299504, 0x266e0aae984824ef,
    0xd5406be2bc71ca17, 0x4573de6c9047c315, 0x1044dd270c233d90, 0x08579fc766e7f85a,
    0xde5b4507df347a55, 0xfeab003533fc0ab0, 0xc42c243707490ab7, 0xeeed9a913ece46d8,
    0x01112fe5ee6ea07d, 0xce697434ba3b756d, 0xb66f1531ecc15ecf, 0xd36565b18b3f2d47,
    0xdaa4b7b6534bbe25, 0xb554e9679a99983f, 0xf99e3b8870942582, 0xbee413b38f43705f,
    0xf76ec45fcf035f81, 0xe761f141d1a8d617, 0x4c8edac31a689f26, 0x58d05f4fcf25f4bc,
    0xcfd93ec2aad06d97, 0xcedcaf8f6cf7ef01, 0x398dd3a0f5262b43, 0xc33ba28c73daf121,
    0xc00dd21868eec607, 0x6be3a95b1b0ad530, 0x1c66f7843245d135, 0xa1c29a6762f05082,
];

#[test]
fn chacha8_keystreams_are_pinned() {
    for (seed, stream, expected) in [
        (0, 0, &CHACHA_0_0),
        (42, 0, &CHACHA_42_0),
        (7, 3, &CHACHA_7_3),
        (7, 4, &CHACHA_7_4),
    ] {
        let mut rng = ChaCha8::with_stream(seed, stream);
        let words: Vec<u64> = (0..40).map(|_| rng.next_u64()).collect();
        assert_eq!(words, expected, "seed {seed}, stream {stream}");
    }
    // `new` is stream 0.
    let mut rng = ChaCha8::new(42);
    assert_eq!(rng.next_u64(), CHACHA_42_0[0]);
}

#[test]
fn sampling_helpers_are_pinned() {
    let mut rng = ChaCha8::new(1);
    let below_ten: Vec<u64> = (0..40).map(|_| rng.gen_range(0..10u64)).collect();
    assert_eq!(
        below_ten,
        [
            0, 3, 8, 2, 8, 6, 7, 9, 7, 2, 5, 9, 9, 8, 2, 8, 7, 7, 5, 3, 6, 2, 5, 3, 5, 2, 5, 4, 0,
            5, 3, 0, 8, 9, 7, 9, 3, 7, 8, 1
        ]
    );
    let three_to_nine: Vec<usize> = (0..40).map(|_| rng.gen_range(3..=9usize)).collect();
    assert_eq!(
        three_to_nine,
        [
            9, 4, 4, 6, 6, 9, 7, 9, 9, 7, 9, 3, 5, 3, 9, 6, 3, 8, 4, 9, 4, 3, 9, 7, 7, 6, 5, 6, 8,
            9, 5, 3, 3, 6, 5, 8, 7, 9, 6, 6
        ]
    );
    let coins: Vec<u8> = (0..40).map(|_| u8::from(rng.gen_bool(0.3))).collect();
    assert_eq!(
        coins,
        [
            1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0,
            0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1
        ]
    );
    // One keystream word per `next_u32`: after an odd count, a `u64`
    // straddles two words of a block.
    let words: Vec<u32> = (0..9).map(|_| rng.next_u32()).collect();
    assert_eq!(
        words,
        [
            0xc5a4647c, 0xb52a2cef, 0xa2bc7329, 0x4961adf4, 0x8095cdc0, 0x1dab5c17, 0xc1d2f663,
            0xda18e355, 0xe8b1411e
        ]
    );
    let after: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        after,
        [
            0x652a4b5d71569db8,
            0xcbfeb2eb2b7c5c15,
            0xc6de405adbd55502,
            0xacef7cacb44eec96
        ]
    );
    // The remainder is taken in `u128`: the full `u64` range is the raw word.
    let mut twin = rng.clone();
    assert_eq!(rng.gen_range(0..=u64::MAX), twin.next_u64());
}

#[test]
fn splitmix64_is_pinned() {
    let mut rng = SplitMix64::new(0);
    let words: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            0xe220a8397b1dcdaf,
            0x6e789e6aa1b965f4,
            0x06c45d188009454f,
            0xf88bb8a8724c81ec,
            0x1b39896a51a8749b,
            0x53cb9f0c747ea2ea,
            0x2c829abe1f4532e1,
            0xc584133ac916ab3c,
            0x3ee5789041c98ac3,
            0xf3b8488c368cb0a6,
            0x657eecdd3cb13d09,
            0xc2d326e0055bdef6,
            0x8621a03fe0bbdb7b,
            0x8e1f7555983aa92f,
            0xb54e0f1600cc4d19,
            0x84bb3f97971d80ab,
        ]
    );
    assert_eq!(
        [mix64(0), mix64(1), mix64(u64::MAX)],
        [0xe220a8397b1dcdaf, 0x910a2dec89025cc1, 0xe4d971771b652c20]
    );
}

#[test]
fn the_workload_generator_is_pinned() {
    let tree = Workload::new(1).random_tree(500, 0.4, 2);
    assert_eq!(tree.len(), 501);
    // FNV-1a over the ids in arena order.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in tree.blocks().flat_map(|b| b.id.0.to_le_bytes()) {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(0x100_0000_01b3);
    }
    assert_eq!(digest, 0x6de01245df99d5eb);
}
