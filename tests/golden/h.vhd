-- h: multicycle custom-instruction datapath (opcode 2).
-- Interface: start latches the first operand pair; further pairs stream
-- on consecutive enabled cycles; done pulses for one enabled cycle when
-- the result is valid.

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
library lpm;
use lpm.lpm_components.all;

entity h is
  port (
    clk : in std_logic;
    clk_en : in std_logic;
    reset : in std_logic;
    start : in std_logic;
    dataa : in std_logic_vector(31 downto 0);
    datab : in std_logic_vector(31 downto 0);
    done : out std_logic;
    result : out std_logic_vector(31 downto 0)
  );
end entity h;

architecture rtl of h is

  component lpm_add_sub
    generic (
      LPM_WIDTH : natural;
      LPM_DIRECTION : string
    );
    port (
      dataa : in std_logic_vector(LPM_WIDTH - 1 downto 0);
      datab : in std_logic_vector(LPM_WIDTH - 1 downto 0);
      result : out std_logic_vector(LPM_WIDTH - 1 downto 0)
    );
  end component;

  component ci_concat_extend
    generic (
      FROM_WIDTH : natural;
      TO_WIDTH : natural;
      EXTEND_MODE : string
    );
    port (
      a : in std_logic_vector(FROM_WIDTH - 1 downto 0);
      result : out std_logic_vector(TO_WIDTH - 1 downto 0)
    );
  end component;

  component lpm_divide
    generic (
      LPM_WIDTHN : natural;
      LPM_WIDTHD : natural;
      LPM_NREPRESENTATION : string;
      LPM_DREPRESENTATION : string
    );
    port (
      numer : in std_logic_vector(LPM_WIDTHN - 1 downto 0);
      denom : in std_logic_vector(LPM_WIDTHD - 1 downto 0);
      quotient : out std_logic_vector(LPM_WIDTHN - 1 downto 0);
      remain : out std_logic_vector(LPM_WIDTHD - 1 downto 0)
    );
  end component;

  signal cnt : integer range 0 to 3;
  signal r_a : std_logic_vector(7 downto 0);
  signal r_b : std_logic_vector(7 downto 0);
  signal r_c : std_logic_vector(3 downto 0);
  signal w_x_0 : std_logic_vector(8 downto 0);
  signal w_1_q : std_logic_vector(7 downto 0);
  signal w_1_r : std_logic_vector(8 downto 0);
  signal w_1_m : std_logic_vector(8 downto 0);
  signal s_1 : std_logic_vector(7 downto 0);
  signal w_4_q : std_logic_vector(7 downto 0);
  signal w_4_r : std_logic_vector(3 downto 0);
  signal s_4 : std_logic_vector(7 downto 0);
  signal w_3 : std_logic_vector(7 downto 0);

begin

  x_0 : ci_concat_extend
    generic map (
      FROM_WIDTH => 8,
      TO_WIDTH => 9,
      EXTEND_MODE => "ZERO"
    )
    port map (
      a => r_b,
      result => w_x_0
    );

  u_mods_0 : lpm_divide
    generic map (
      LPM_WIDTHN => 8,
      LPM_WIDTHD => 9,
      LPM_NREPRESENTATION => "SIGNED",
      LPM_DREPRESENTATION => "SIGNED"
    )
    port map (
      numer => r_a,
      denom => w_x_0,
      quotient => w_1_q,
      remain => w_1_r
    );

  u_divs_1 : lpm_divide
    generic map (
      LPM_WIDTHN => 8,
      LPM_WIDTHD => 4,
      LPM_NREPRESENTATION => "SIGNED",
      LPM_DREPRESENTATION => "SIGNED"
    )
    port map (
      numer => r_a,
      denom => r_c,
      quotient => w_4_q,
      remain => w_4_r
    );

  u_sub_2 : lpm_add_sub
    generic map (
      LPM_WIDTH => 8,
      LPM_DIRECTION => "SUB"
    )
    port map (
      dataa => s_1,
      datab => s_4,
      result => w_3
    );

  w_1_m <= std_logic_vector(unsigned(w_1_r) + unsigned(w_x_0)) when unsigned(w_1_r) /= 0 and w_1_r(8) /= w_x_0(8) else w_1_r;

  result <= std_logic_vector(resize(unsigned(std_logic_vector(resize(signed(w_3), 16))), 32));

  control : process (clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        cnt <= 0;
        done <= '0';
        r_a <= (others => '0');
        r_b <= (others => '0');
        r_c <= (others => '0');
        s_1 <= (others => '0');
        s_4 <= (others => '0');
      elsif clk_en = '1' then
        done <= '0';
        if cnt = 0 then
          if start = '1' then
            r_a <= dataa(7 downto 0);
            r_b <= datab(7 downto 0);
            cnt <= 1;
          end if;
        elsif cnt = 1 then
          r_c <= dataa(3 downto 0);
          cnt <= 2;
        elsif cnt = 2 then
          s_1 <= w_1_m(7 downto 0);
          s_4 <= w_4_q;
          done <= '1';
          cnt <= 3;
        elsif cnt = 3 then
          cnt <= 0;
        end if;
      end if;
    end if;
  end process control;

end architecture rtl;

-- Support unit: widens a vector by replicating its top bit (sign extension)
-- or by padding with zeros, using the concatenation operator.

library ieee;
use ieee.std_logic_1164.all;

entity ci_concat_extend is
  generic (
    FROM_WIDTH : natural;
    TO_WIDTH : natural;
    EXTEND_MODE : string
  );
  port (
    a : in std_logic_vector(FROM_WIDTH - 1 downto 0);
    result : out std_logic_vector(TO_WIDTH - 1 downto 0)
  );
end entity ci_concat_extend;

architecture rtl of ci_concat_extend is
  signal pad : std_logic_vector(TO_WIDTH - FROM_WIDTH - 1 downto 0);
begin
  pad <= (others => a(FROM_WIDTH - 1)) when EXTEND_MODE = "SIGN" else (others => '0');
  result <= pad & a;
end architecture rtl;
